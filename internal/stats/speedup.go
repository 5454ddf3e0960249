package stats

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// CaseKey identifies one (source, destination, size) test case in the
// paper's Section 4.2 aggregate evaluation.
type CaseKey struct {
	Source string
	Dest   string
	Size   int64 // bytes
}

// caseAccum accumulates direct and scheduled bandwidth observations for
// one case.
type caseAccum struct {
	directSum    float64
	directN      int
	scheduledSum float64
	scheduledN   int
}

// SpeedupAggregator groups bandwidth measurements by case and computes
// the paper's speedup metric:
//
//	speedup(case) = mean scheduled bandwidth / mean direct bandwidth
//
// Only cases with at least one measurement of each kind contribute.
type SpeedupAggregator struct {
	cases map[CaseKey]*caseAccum
}

// NewSpeedupAggregator returns an empty aggregator.
func NewSpeedupAggregator() *SpeedupAggregator {
	return &SpeedupAggregator{cases: make(map[CaseKey]*caseAccum)}
}

// AddDirect records a direct-transfer bandwidth observation (bytes/sec).
func (a *SpeedupAggregator) AddDirect(k CaseKey, bw float64) {
	c := a.accum(k)
	c.directSum += bw
	c.directN++
}

// AddScheduled records a scheduled (LSL) bandwidth observation.
func (a *SpeedupAggregator) AddScheduled(k CaseKey, bw float64) {
	c := a.accum(k)
	c.scheduledSum += bw
	c.scheduledN++
}

func (a *SpeedupAggregator) accum(k CaseKey) *caseAccum {
	c := a.cases[k]
	if c == nil {
		c = &caseAccum{}
		a.cases[k] = c
	}
	return c
}

// Measurements reports the total number of recorded observations.
func (a *SpeedupAggregator) Measurements() int {
	var n int
	for _, c := range a.cases {
		n += c.directN + c.scheduledN
	}
	return n
}

// Cases reports the number of distinct case keys seen.
func (a *SpeedupAggregator) Cases() int { return len(a.cases) }

// Speedups returns the per-case speedups for every complete case
// (cases missing either kind of measurement are skipped), keyed by size.
func (a *SpeedupAggregator) Speedups() map[int64][]float64 {
	out := make(map[int64][]float64)
	for k, c := range a.cases {
		if c.directN == 0 || c.scheduledN == 0 {
			continue
		}
		direct := c.directSum / float64(c.directN)
		sched := c.scheduledSum / float64(c.scheduledN)
		if direct <= 0 {
			continue
		}
		out[k.Size] = append(out[k.Size], sched/direct)
	}
	return out
}

// SizeRow is the per-transfer-size summary row printed by the Figure
// 9/10 harnesses.
type SizeRow struct {
	Size    int64
	Cases   int
	Mean    float64
	Box     Box
	PctOver int  // percentile at which speedup exceeds 1 (paper's table)
	PctOK   bool // false when no percentile exceeds 1
}

// BySize computes one summary row per transfer size, sorted by size.
func (a *SpeedupAggregator) BySize() []SizeRow {
	groups := a.Speedups()
	sizes := make([]int64, 0, len(groups))
	for s := range groups {
		sizes = append(sizes, s)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	rows := make([]SizeRow, 0, len(sizes))
	for _, s := range sizes {
		xs := groups[s]
		box, err := Summarize(xs)
		if err != nil {
			continue
		}
		pct, ok := CrossoverPercentile(xs, 1.0)
		rows = append(rows, SizeRow{
			Size:    s,
			Cases:   len(xs),
			Mean:    Mean(xs),
			Box:     box,
			PctOver: pct,
			PctOK:   ok,
		})
	}
	return rows
}

// ParseSize reads a byte count as the command-line flags take it: a
// whole positive number with an optional K, M or G suffix (binary
// multiples, either case) and nothing else but surrounding space.
func ParseSize(s string) (int64, error) {
	t, shift := strings.ToUpper(strings.TrimSpace(s)), 0
	if n := len(t); n > 0 {
		if i := strings.IndexByte("KMG", t[n-1]); i >= 0 {
			t, shift = t[:n-1], 10*(i+1)
		}
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n <= 0 || n > math.MaxInt64>>shift {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n << shift, nil
}

// FormatSize renders a byte count as the paper's "1M".."128M" labels
// when it is a whole number of MiB, otherwise as a byte count.
func FormatSize(size int64) string {
	const mb = 1 << 20
	if size%mb == 0 {
		return fmt.Sprintf("%dM", size/mb)
	}
	return fmt.Sprintf("%dB", size)
}
