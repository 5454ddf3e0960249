package stats

import (
	"math/rand"
	"testing"
)

func TestSpeedupAggregatorBasics(t *testing.T) {
	agg := NewSpeedupAggregator()
	key := CaseKey{Source: "a", Dest: "b", Size: 1 << 20}
	agg.AddDirect(key, 100)
	agg.AddDirect(key, 200)
	agg.AddScheduled(key, 300)

	if agg.Measurements() != 3 {
		t.Fatalf("Measurements = %d", agg.Measurements())
	}
	if agg.Cases() != 1 {
		t.Fatalf("Cases = %d", agg.Cases())
	}
	groups := agg.Speedups()
	xs := groups[1<<20]
	if len(xs) != 1 {
		t.Fatalf("speedups = %v", xs)
	}
	// mean scheduled (300) / mean direct (150) = 2.
	if !almost(xs[0], 2) {
		t.Fatalf("speedup = %v, want 2", xs[0])
	}
}

func TestSpeedupSkipsIncompleteCases(t *testing.T) {
	agg := NewSpeedupAggregator()
	agg.AddDirect(CaseKey{Source: "a", Dest: "b", Size: 1}, 5)
	agg.AddScheduled(CaseKey{Source: "c", Dest: "d", Size: 1}, 5)
	if got := agg.Speedups(); len(got[1]) != 0 {
		t.Fatalf("incomplete cases leaked: %v", got)
	}
}

func TestSpeedupZeroDirectSkipped(t *testing.T) {
	agg := NewSpeedupAggregator()
	k := CaseKey{Source: "a", Dest: "b", Size: 1}
	agg.AddDirect(k, 0)
	agg.AddScheduled(k, 10)
	if got := agg.Speedups(); len(got[1]) != 0 {
		t.Fatalf("zero-direct case leaked: %v", got)
	}
}

func TestBySizeSorted(t *testing.T) {
	agg := NewSpeedupAggregator()
	for _, size := range []int64{4 << 20, 1 << 20, 2 << 20} {
		k := CaseKey{Source: "a", Dest: "b", Size: size}
		agg.AddDirect(k, 100)
		agg.AddScheduled(k, 150)
	}
	rows := agg.BySize()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Size >= rows[i].Size {
			t.Fatalf("rows not sorted by size: %v then %v", rows[i-1].Size, rows[i].Size)
		}
	}
	for _, r := range rows {
		if !almost(r.Mean, 1.5) {
			t.Fatalf("row mean = %v, want 1.5", r.Mean)
		}
		if r.Cases != 1 {
			t.Fatalf("row cases = %d", r.Cases)
		}
	}
}

func TestBySizeCrossover(t *testing.T) {
	agg := NewSpeedupAggregator()
	rng := rand.New(rand.NewSource(3))
	// 40% winners: crossover percentile should land near 60.
	for i := 0; i < 200; i++ {
		k := CaseKey{Source: "s", Dest: string(rune('a' + i)), Size: 8 << 20}
		agg.AddDirect(k, 100)
		if i < 120 {
			agg.AddScheduled(k, 50+rng.Float64()*40) // speedup < 1
		} else {
			agg.AddScheduled(k, 110+rng.Float64()*100) // speedup > 1
		}
	}
	rows := agg.BySize()
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if !r.PctOK {
		t.Fatal("expected crossover")
	}
	if r.PctOver < 55 || r.PctOver > 65 {
		t.Fatalf("crossover percentile = %d, want near 60", r.PctOver)
	}
}

func TestFormatSize(t *testing.T) {
	if got := FormatSize(1 << 20); got != "1M" {
		t.Fatalf("FormatSize(1M) = %q", got)
	}
	if got := FormatSize(128 << 20); got != "128M" {
		t.Fatalf("FormatSize(128M) = %q", got)
	}
	if got := FormatSize(1000); got != "1000B" {
		t.Fatalf("FormatSize(1000) = %q", got)
	}
}

// TestParseSize holds the one size parser of lsl-xfer -size and lsl-ctl
// -probe: suffixes and space are read, and anything left over, a
// fraction, a sign below one or an overflow is rejected.
func TestParseSize(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
	}{
		{"512", 512},
		{"1024", 1024},
		{"64K", 64 << 10},
		{"256k", 256 << 10},
		{"16M", 16 << 20},
		{" 8m ", 8 << 20},
		{"2G", 2 << 30},
	} {
		if got, err := ParseSize(c.in); err != nil || got != c.want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "M", "-4M", "-1", "0", "xK", "4Q", "12Q", "12.5M", "4MB", "1 M", "9999999999G"} {
		if n, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) = %d, want an error", bad, n)
		}
	}
}
