package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/netlogistics/lsl/internal/nws"
	"github.com/netlogistics/lsl/internal/schedule"
	"github.com/netlogistics/lsl/internal/topo"
)

// BuildTopology constructs one of the named evaluation testbeds:
// "twopath", "planetlab", or "abilene".
func BuildTopology(name string, seed int64) (*topo.Topology, error) {
	switch name {
	case "twopath":
		return topo.TwoPath(), nil
	case "planetlab":
		return topo.PlanetLab(topo.DefaultPlanetLab(), seed), nil
	case "abilene":
		return topo.AbileneCore(topo.DefaultAbileneCore(), seed), nil
	default:
		return nil, fmt.Errorf("experiments: unknown topology %q (want twopath, planetlab, or abilene)", name)
	}
}

// DumpMeasurements renders NWS-style bandwidth measurements of a
// testbed; its text is the format cmd/lsl-sched consumes:
//
//	<source-host> <dest-host> <bandwidth-bytes-per-sec>
//
// samples observations are emitted per ordered pair, so lsl-sched's
// averaging mirrors the forecast smoothing of the in-process planner.
func DumpMeasurements(topoName string, seed int64, samples int) (Table, error) {
	t, err := BuildTopology(topoName, seed)
	if err != nil {
		return Table{}, err
	}
	if samples < 1 {
		samples = 1
	}
	rng := rand.New(rand.NewSource(seed + 1))
	out := Table{
		Title: fmt.Sprintf("# %s testbed, seed %d, %d samples per ordered pair\n", topoName, seed, samples) +
			"# <source-host> <dest-host> <bandwidth-bytes-per-sec>",
		Columns: []Column{
			{Text: "%s", Name: "source", CSV: "%s"},
			{Text: "%s", Name: "dest", CSV: "%s"},
			{Text: "%.0f", Name: "bandwidth_Bps", CSV: "%.0f"},
		},
	}
	for s := 0; s < t.N(); s++ {
		for d := 0; d < t.N(); d++ {
			if s == d {
				continue
			}
			for k := 0; k < samples; k++ {
				out.Rows = append(out.Rows, []any{t.Hosts[s].Name, t.Hosts[d].Name, t.MeasuredBW(s, d, rng)})
			}
		}
	}
	return out, nil
}

// Weather renders the current NWS forecast matrix for a testbed — the
// "performance topology" the scheduler consumes. Small testbeds print
// the host-level matrix; the 142-host mesh is site-aggregated for
// readability (and because that is what the planner actually uses).
// The CSV lists the same matrix one ordered pair per record.
func Weather(topoName string, seed int64) (Table, error) {
	t, err := BuildTopology(topoName, seed)
	if err != nil {
		return Table{}, err
	}
	planner, err := schedule.NewPlanner(t, schedule.DefaultEpsilon)
	if err != nil {
		return Table{}, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	if err := planner.Prime(rng, 8); err != nil {
		return Table{}, err
	}
	mx := planner.Monitor.Snapshot()
	title := fmt.Sprintf("NWS forecast matrix for %s (MB/s, mean relative error %.1f%%)\n",
		topoName, 100*planner.Monitor.MeanRelativeError())
	if t.N() > 24 {
		idx := make(map[string]int, t.N())
		for i, h := range t.Hosts {
			idx[h.Name] = i
		}
		mx = mx.AggregateBySite(func(host string) string { return t.SiteOf(idx[host]) })
		title += fmt.Sprintf("(aggregated to %d sites)\n", len(mx.Hosts))
	}
	out := Table{
		Title: title + strings.TrimSuffix(mx.String(), "\n"),
		Columns: []Column{
			{Name: "source", CSV: "%s"},
			{Name: "dest", CSV: "%s"},
			{Name: "forecast_MBps", CSV: "%.4f"},
		},
	}
	for i, src := range mx.Hosts {
		for j, dst := range mx.Hosts {
			if i != j {
				out.Rows = append(out.Rows, []any{src, dst, mx.BW[i][j] / 1e6})
			}
		}
	}
	return out, nil
}

// NWSEvaluation exercises the forecaster bank the way Wolski's NWS
// paper motivates dynamic predictor selection: on three synthetic
// bandwidth regimes (stationary noise, drifting level, measurement
// spikes) plus a real measured series from the two-path testbed, no
// single expert wins everywhere but the selector stays competitive
// with the best one in hindsight. It returns one table per regime,
// best expert first.
func NWSEvaluation(seed int64) ([]Table, error) {
	rng := rand.New(rand.NewSource(seed))
	regimes := []struct {
		name   string
		series []float64
	}{
		{"stationary", synthSeries(400, rng, func(i int) float64 { return 100 + rng.NormFloat64()*8 })},
		{"drifting", driftSeries(400, rng)},
		{"spiky", synthSeries(400, rng, func(i int) float64 {
			v := 100 + rng.NormFloat64()*3
			if rng.Float64() < 0.08 {
				v *= 5
			}
			return v
		})},
		{"measured (UCSB→UF)", measuredSeries(seed, 400)},
	}
	var out []Table
	for _, r := range regimes {
		experts, selector, err := nws.Evaluate(r.series)
		if err != nil {
			return nil, err
		}
		t := Table{
			Title: fmt.Sprintf("=== %s series ===", r.name),
			Columns: []Column{
				{Name: "series", CSV: "%s"},
				{"predictor", "%-16s", "predictor", "%s"},
				{"MAE", "%12.4g", "mae", "%g"},
			},
		}
		for _, e := range append(experts, selector) {
			t.Rows = append(t.Rows, []any{r.name, e.Name, e.MAE})
		}
		out = append(out, t)
	}
	return out, nil
}

func synthSeries(n int, rng *rand.Rand, gen func(int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = gen(i)
	}
	return out
}

func driftSeries(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	level := 100.0
	for i := range out {
		level += rng.NormFloat64() * 3
		out[i] = level + rng.NormFloat64()*2
	}
	return out
}

// measuredSeries samples the two-path testbed's UCSB→UF bandwidth with
// the slow load walk enabled, producing a realistically autocorrelated
// series.
func measuredSeries(seed int64, n int) []float64 {
	t := topo.TwoPath()
	t.EnableLoadDrift(0.08)
	// Give the endpoints node ceilings below the path's steady state so
	// the load walk, not i.i.d. measurement noise, shapes the series.
	for i := range t.Hosts {
		if t.Hosts[i].NodeBW == 0 {
			t.Hosts[i].NodeBW = 2.2e6
		}
	}
	t.MeasureNoise = 0.04
	rng := rand.New(rand.NewSource(seed + 7))
	a, bIdx := t.MustHost("ash.ucsb.edu"), t.MustHost("gator.ufl.edu")
	out := make([]float64, n)
	for i := range out {
		out[i] = t.MeasuredBW(a, bIdx, rng)
		t.AdvanceLoad(rng)
	}
	return out
}
