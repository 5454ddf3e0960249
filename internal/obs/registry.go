// Package obs is the observability layer of the LSL stack: a lock-free
// metrics registry (counters, gauges, fixed-bucket histograms),
// structured per-session trace events with pluggable sinks, a live
// byte-progress sampler that produces trace.Series-compatible output
// for Figure 4/5-style sequence plots on real transfers, an in-flight
// session table, and an HTTP debug handler that exposes all of it.
//
// The paper's evidence is observational — tcpdump sequence traces whose
// slope knees reveal depot back-pressure — so the depot data path
// reports here rather than being a black box. Everything on the hot
// path is a single atomic operation; registration (name lookup) is the
// only synchronized step and is expected to happen once per metric, at
// setup time.
//
// All types are nil-safe: methods on a nil *Registry, *Counter, *Gauge,
// *Histogram, or a nil Sink are no-ops, so instrumented code needs no
// "is observability configured?" branches.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value; Add makes it usable as an
// occupancy gauge (enqueue +n, dequeue -n).
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current gauge reading (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram. Bounds are inclusive upper
// bounds in ascending order; an implicit +Inf bucket catches the
// overflow. Observations are two atomic adds and a CAS loop for the
// float sum — no locks.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound admits v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bucket is one histogram bucket in a snapshot: the count of samples at
// or below UpperBound (non-cumulative per-bucket count).
type Bucket struct {
	UpperBound float64 `json:"-"`
	Count      int64   `json:"count"`
}

// bucketJSON carries the upper bound as a string so the +Inf overflow
// bucket survives JSON, which has no infinity literal.
type bucketJSON struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// MarshalJSON implements json.Marshaler.
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
	}
	return json.Marshal(bucketJSON{Le: le, Count: b.Count})
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var j bucketJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Le == "+Inf" {
		b.UpperBound = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(j.Le, 64)
		if err != nil {
			return err
		}
		b.UpperBound = v
	}
	b.Count = j.Count
	return nil
}

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Mean returns the average observation (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

func (h *Histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.Sum(),
		Buckets: make([]Bucket, len(h.counts)),
	}
	for i := range h.counts {
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		out.Buckets[i] = Bucket{UpperBound: ub, Count: h.counts[i].Load()}
	}
	return out
}

// Registry holds named metrics. Lookup is a sync.Map load (lock-free
// after first registration); callers are expected to resolve metrics
// once and hold the pointers on their hot paths anyway.
type Registry struct {
	counters sync.Map // string -> *Counter
	gauges   sync.Map // string -> *Gauge
	sampled  sync.Map // string -> func() int64
	hists    sync.Map // string -> *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the counter with the given name, creating it on first
// use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, new(Counter))
	return v.(*Counter)
}

// Gauge returns the gauge with the given name, creating it on first
// use. A nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := r.gauges.LoadOrStore(name, new(Gauge))
	return v.(*Gauge)
}

// GaugeFunc registers a gauge that is read from fn at every snapshot —
// for state another package already counts, such as the buffer pool's
// outstanding buffers. Registering a name again replaces its function;
// a nil registry ignores the call.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r != nil {
		r.sampled.Store(name, fn)
	}
}

// Histogram returns the histogram with the given name, creating it with
// the given bucket upper bounds on first use (later calls reuse the
// original bounds). A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if v, ok := r.hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.hists.LoadOrStore(name, newHistogram(bounds))
	return v.(*Histogram)
}

// ExpBuckets returns n upper bounds starting at start and growing by
// factor — the usual shape for latency and throughput histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Snapshot is a consistent-enough point-in-time view of a registry:
// each metric is read atomically (cross-metric skew is possible while
// traffic is in flight, which is the point of scraping live).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric. A nil registry yields an
// empty (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.counters.Range(func(k, v any) bool {
		s.Counters[k.(string)] = v.(*Counter).Value()
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		s.Gauges[k.(string)] = v.(*Gauge).Value()
		return true
	})
	r.sampled.Range(func(k, v any) bool {
		s.Gauges[k.(string)] = v.(func() int64)()
		return true
	})
	r.hists.Range(func(k, v any) bool {
		s.Histograms[k.(string)] = v.(*Histogram).snapshot()
		return true
	})
	return s
}

// WriteText renders the snapshot in a flat, expvar-style text format,
// one metric per line, sorted by name:
//
//	depot_sessions_accepted_total 12
//	depot_pipeline_occupancy_bytes 458752
//	depot_chunk_write_seconds_bucket{le="0.001"} 80
//	depot_chunk_write_seconds_count 95
func (s Snapshot) WriteText(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		for _, b := range h.Buckets {
			le := "+Inf"
			if !math.IsInf(b.UpperBound, 1) {
				le = fmt.Sprintf("%g", b.UpperBound)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_count %d\n%s_sum %g\n", name, h.Count, name, h.Sum); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the snapshot as JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
