package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits") // concurrent get-or-create on purpose
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestGaugeAddSet(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("occupancy")
	g.Add(100)
	g.Add(-40)
	if g.Value() != 60 {
		t.Fatalf("gauge = %d", g.Value())
	}
	g.Set(7)
	if r.Gauge("occupancy").Value() != 7 {
		t.Fatal("gauge not shared by name")
	}
}

// TestGaugeFuncIsSampledAtSnapshot: a registered function is read when
// a snapshot is taken, not before, and shows among the gauges.
func TestGaugeFuncIsSampledAtSnapshot(t *testing.T) {
	r := NewRegistry()
	var v int64 = 3
	r.GaugeFunc("outstanding", func() int64 { return v })
	v = 11
	if got := r.Snapshot().Gauges["outstanding"]; got != 11 {
		t.Fatalf("sampled gauge = %d, want 11", got)
	}
	var nilReg *Registry
	nilReg.GaugeFunc("outstanding", func() int64 { return 1 }) // must not panic
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	// A value exactly on a bound lands in that bound's bucket
	// (inclusive upper bounds).
	for _, v := range []float64{0.5, 1.0} { // -> le=1
		h.Observe(v)
	}
	h.Observe(1.0001) // -> le=10
	h.Observe(10)     // -> le=10
	h.Observe(99.9)   // -> le=100
	h.Observe(1e9)    // -> +Inf overflow
	snap := h.snapshot()
	wantCounts := []int64{2, 2, 1, 1}
	for i, want := range wantCounts {
		if snap.Buckets[i].Count != want {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, snap.Buckets[i].Count, want, snap)
		}
	}
	if !math.IsInf(snap.Buckets[3].UpperBound, 1) {
		t.Fatal("last bucket should be +Inf")
	}
	if snap.Count != 6 {
		t.Fatalf("count = %d", snap.Count)
	}
}

func TestHistogramSnapshotConsistent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", ExpBuckets(1, 2, 10))
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Observe(float64(i*per+j) / 100)
			}
		}()
	}
	wg.Wait()
	snap := h.snapshot()
	var bucketTotal int64
	for _, b := range snap.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != snap.Count || snap.Count != workers*per {
		t.Fatalf("buckets sum to %d, count %d, want %d", bucketTotal, snap.Count, workers*per)
	}
	// Sum of 0/100 .. 3999/100 = (0+1+...+3999)/100.
	want := float64(workers*per-1) * float64(workers*per) / 2 / 100
	if math.Abs(snap.Sum-want) > 1e-6 {
		t.Fatalf("sum = %g, want %g", snap.Sum, want)
	}
	if got := snap.Mean(); math.Abs(got-want/float64(workers*per)) > 1e-9 {
		t.Fatalf("mean = %g", got)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("buckets = %v", got)
		}
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Add(5)
	r.Histogram("c", []float64{1}).Observe(3)
	if r.Counter("a").Value() != 0 || r.Gauge("b").Value() != 0 || r.Histogram("c", nil).Count() != 0 {
		t.Fatal("nil registry must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestSnapshotText(t *testing.T) {
	r := NewRegistry()
	r.Counter("depot_sessions_accepted_total").Add(3)
	r.Gauge("depot_pipeline_occupancy_bytes").Set(1024)
	r.Histogram("depot_chunk_write_seconds", []float64{0.001, 0.1}).Observe(0.0005)
	var b strings.Builder
	if err := r.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"depot_sessions_accepted_total 3",
		"depot_pipeline_occupancy_bytes 1024",
		`depot_chunk_write_seconds_bucket{le="0.001"} 1`,
		`depot_chunk_write_seconds_bucket{le="+Inf"} 0`,
		"depot_chunk_write_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
	var j strings.Builder
	if err := r.Snapshot().WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(j.String(), `"depot_sessions_accepted_total": 3`) {
		t.Fatalf("json output:\n%s", j.String())
	}
}
