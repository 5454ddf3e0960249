// Package experiments regenerates every table and figure of the
// paper's evaluation. Each experiment has a typed runner, which the
// tests and the repository benchmarks read, and renders its result as
// a Table. The registry (registry.go) names every experiment once, with
// the DESIGN.md §4 rows it regenerates; cmd/lsl-exp is a loop over it,
// and the golden test checks the simulated entries' exact output.
package experiments

import (
	"fmt"
	"math/rand"

	"github.com/netlogistics/lsl/internal/netsim"
	"github.com/netlogistics/lsl/internal/pipesim"
	"github.com/netlogistics/lsl/internal/simtime"
	"github.com/netlogistics/lsl/internal/topo"
	"github.com/netlogistics/lsl/internal/trace"
)

// mbit converts bytes/sec to Mbit/s.
func mbit(bytesPerSec float64) float64 { return bytesPerSec * 8 / 1e6 }

// BandwidthCurve is the Figure 2/3 result: observed direct and LSL
// bandwidth per transfer size.
type BandwidthCurve struct {
	Title      string
	Via        string
	Sizes      []int64
	DirectMbit []float64
	LSLMbit    []float64
	Iterations int
}

// runCurve measures direct vs relayed bandwidth on the two-path testbed.
func runCurve(title string, src, depot, dst string, maxExp int, iterations int, seed int64) (BandwidthCurve, error) {
	t := topo.TwoPath()
	eng := netsim.New(seed)
	rng := rand.New(rand.NewSource(seed + 1))
	si := t.MustHost(src)
	di := t.MustHost(dst)
	mi := t.MustHost(depot)

	curve := BandwidthCurve{Title: title, Via: depot, Iterations: iterations}
	for e := 0; e <= maxExp; e++ {
		size := int64(1) << (20 + e)
		var direct, lsl float64
		for it := 0; it < iterations; it++ {
			res, err := pipesim.Run(eng, t.DirectChain(si, di, size, rng, false))
			if err != nil {
				return curve, fmt.Errorf("experiments: %s direct: %w", title, err)
			}
			direct += res.Bandwidth

			chain, err := t.RelayChain([]int{si, mi, di}, size, rng, false)
			if err != nil {
				return curve, err
			}
			res, err = pipesim.Run(eng, chain)
			if err != nil {
				return curve, fmt.Errorf("experiments: %s lsl: %w", title, err)
			}
			lsl += res.Bandwidth
		}
		curve.Sizes = append(curve.Sizes, size)
		curve.DirectMbit = append(curve.DirectMbit, mbit(direct/float64(iterations)))
		curve.LSLMbit = append(curve.LSLMbit, mbit(lsl/float64(iterations)))
	}
	return curve, nil
}

// Fig2 reproduces Figure 2: transfers from UCSB to UIUC (via the Denver
// depot), 1-64 MB.
func Fig2(seed int64, iterations int) (BandwidthCurve, error) {
	return runCurve("Figure 2: UCSB to UIUC (1MB-64MB)",
		topo.UCSB, topo.Denver, topo.UIUC, 6, iterations, seed)
}

// Fig3 reproduces Figure 3: transfers from UCSB to UF (via the Houston
// depot), 1-128 MB.
func Fig3(seed int64, iterations int) (BandwidthCurve, error) {
	return runCurve("Figure 3: UCSB to UF (1MB-128MB)",
		topo.UCSB, topo.Houston, topo.UF, 7, iterations, seed)
}

// curveTable renders the curve in the paper's units.
func curveTable(c BandwidthCurve) Table {
	t := Table{
		Title: fmt.Sprintf("%s (avg of %d runs, depot at %s)", c.Title, c.Iterations, c.Via),
		Columns: []Column{
			{"size", "%9dM", "size_mb", "%d"},
			{"direct Mbit/s", "%14.2f", "direct_mbit", "%.4f"},
			{"LSL Mbit/s", "%14.2f", "lsl_mbit", "%.4f"},
			{"speedup", "%8.2fx", "speedup", "%.4f"},
		},
	}
	for i, s := range c.Sizes {
		speed := 0.0
		if c.DirectMbit[i] > 0 {
			speed = c.LSLMbit[i] / c.DirectMbit[i]
		}
		t.Rows = append(t.Rows, []any{s >> 20, c.DirectMbit[i], c.LSLMbit[i], speed})
	}
	return t
}

// SeqTraces is the Figure 4/5 result: averaged acknowledged-sequence
// traces for the two sublinks and the direct transfer, with the derived
// bottleneck diagnostics.
type SeqTraces struct {
	Title   string
	Sub1    *trace.Series
	Sub2    *trace.Series
	Direct  *trace.Series
	MaxLead int64 // bytes sublink 1 ran ahead of sublink 2

	Sub1Slope   float64 // steady-region bytes/sec
	Sub2Slope   float64
	DirectSlope float64

	DepotPipeline int64
}

func runTraces(title string, src, depot, dst string, size int64, iterations int, seed int64) (SeqTraces, error) {
	t := topo.TwoPath()
	eng := netsim.New(seed)
	rng := rand.New(rand.NewSource(seed + 1))
	si, mi, di := t.MustHost(src), t.MustHost(depot), t.MustHost(dst)

	var sub1, sub2, direct []*trace.Series
	var leadSum float64
	var s1Sum, s2Sum, dirSum float64
	for it := 0; it < iterations; it++ {
		chain, err := t.RelayChain([]int{si, mi, di}, size, rng, true)
		if err != nil {
			return SeqTraces{}, err
		}
		res, err := pipesim.Run(eng, chain)
		if err != nil {
			return SeqTraces{}, fmt.Errorf("experiments: %s relay: %w", title, err)
		}
		// Rebase each run's traces to its own start time so runs align.
		r1 := rebase(res.Traces[0], res.Start)
		r2 := rebase(res.Traces[1], res.Start)
		sub1 = append(sub1, r1)
		sub2 = append(sub2, r2)
		leadSum += float64(r1.MaxLead(r2))
		s1Sum += steadySlope(r1)
		s2Sum += steadySlope(r2)

		dres, err := pipesim.Run(eng, t.DirectChain(si, di, size, rng, true))
		if err != nil {
			return SeqTraces{}, fmt.Errorf("experiments: %s direct: %w", title, err)
		}
		rd := rebase(dres.Traces[0], dres.Start)
		direct = append(direct, rd)
		dirSum += steadySlope(rd)
	}

	const gridN = 200
	n := float64(iterations)
	out := SeqTraces{
		Title:         title,
		Sub1:          trace.AverageSeries(src+"-"+depot, sub1, gridN),
		Sub2:          trace.AverageSeries(depot+"-"+dst, sub2, gridN),
		Direct:        trace.AverageSeries(src+"-"+dst, direct, gridN),
		DepotPipeline: t.Hosts[mi].PipelineBytes,
		MaxLead:       int64(leadSum / n),
		Sub1Slope:     s1Sum / n,
		Sub2Slope:     s2Sum / n,
		DirectSlope:   dirSum / n,
	}
	return out, nil
}

// rebase shifts a series so its run starts at time zero.
func rebase(s *trace.Series, start simtime.Time) *trace.Series {
	out := trace.NewSeries(s.Name)
	for _, p := range s.Points {
		out.Points = append(out.Points, trace.Point{At: p.At - start, Acked: p.Acked})
	}
	return out
}

// steadySlope measures the growth rate over the middle half of a
// series' lifetime, avoiding both the slow-start ramp and the tail.
func steadySlope(s *trace.Series) float64 {
	end := s.Final().At
	if end <= 0 {
		return 0
	}
	t0 := simtime.Time(0.25 * end.Seconds())
	t1 := simtime.Time(0.75 * end.Seconds())
	return s.Slope(t0, t1)
}

// Fig4 reproduces Figure 4: averaged sequence traces for 64 MB
// transfers from UCSB to UF via Houston, where the first sublink is the
// bottleneck and the two sublink slopes track closely.
func Fig4(seed int64, iterations int) (SeqTraces, error) {
	return runTraces("Figure 4: 64MB UCSB->UF via Houston",
		topo.UCSB, topo.Houston, topo.UF, 64<<20, iterations, seed)
}

// Fig5 reproduces Figure 5: averaged sequence traces for 64 MB
// transfers from UCSB to UIUC via Denver, where the second sublink is
// the bottleneck and sublink 1 runs one depot pipeline (32 MB) ahead
// before bending to sublink 2's slope.
func Fig5(seed int64, iterations int) (SeqTraces, error) {
	return runTraces("Figure 5: 64MB UCSB->UIUC via Denver",
		topo.UCSB, topo.Denver, topo.UIUC, 64<<20, iterations, seed)
}

// tracesTable renders the traces on a common time grid, acknowledged
// sequence numbers in MB: 24 steps as text, 100 as CSV.
func tracesTable(r SeqTraces) Table {
	series := []*trace.Series{r.Sub1, r.Sub2, r.Direct}
	var end simtime.Time
	for _, s := range series {
		if f := s.Final().At; f > end {
			end = f
		}
	}
	row := func(t float64) []any {
		out := []any{t}
		for _, s := range series {
			out = append(out, float64(s.AckedAt(simtime.Time(t)))/(1<<20))
		}
		return out
	}
	t := Table{
		Title: r.Title + " (sequence numbers in MB)",
		Columns: []Column{
			{"time(s)", "%10.2f", "time_s", "%.4f"},
			{r.Sub1.Name, "%16.2f", "sublink1_mb", "%.4f"},
			{r.Sub2.Name, "%16.2f", "sublink2_mb", "%.4f"},
			{r.Direct.Name, "%16.2f", "direct_mb", "%.4f"},
		},
		Notes: []string{
			fmt.Sprintf("steady slopes: sublink1=%.2f MB/s sublink2=%.2f MB/s direct=%.2f MB/s",
				r.Sub1Slope/(1<<20), r.Sub2Slope/(1<<20), r.DirectSlope/(1<<20)),
			fmt.Sprintf("max sublink-1 lead over sublink-2: %.1f MB (depot pipeline %d MB)",
				float64(r.MaxLead)/(1<<20), r.DepotPipeline>>20),
		},
	}
	if end > 0 {
		step := end.Seconds() / 24
		for i := 0; i <= 24; i++ {
			t.Rows = append(t.Rows, row(step*float64(i)))
		}
	}
	for i := 0; i <= 100; i++ {
		t.CSVRows = append(t.CSVRows, row(end.Seconds()*float64(i)/100))
	}
	return t
}

// RTTs reproduces the Section 3 round-trip-time table.
func RTTs() ([]string, error) {
	return topo.TwoPath().RTTTable(topo.PaperRTTPairs())
}

// rttTable renders the RTT table; its CSV carries the raw RTTs.
func rttTable() (Table, error) {
	lines, err := RTTs()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title: "Section 3 round-trip times:",
		Columns: []Column{
			{Text: "  %s"},
			{Name: "from", CSV: "%s"},
			{Name: "to", CSV: "%s"},
			{Name: "rtt_ms", CSV: "%.0f"},
		},
	}
	tp := topo.TwoPath()
	for i, p := range topo.PaperRTTPairs() {
		rtt := tp.Link(tp.MustHost(p[0]), tp.MustHost(p[1])).RTT.Seconds() * 1e3
		t.Rows = append(t.Rows, []any{lines[i], p[0], p[1], rtt})
	}
	return t, nil
}
