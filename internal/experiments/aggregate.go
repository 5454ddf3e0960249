package experiments

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"github.com/netlogistics/lsl/internal/netsim"
	"github.com/netlogistics/lsl/internal/schedule"
	"github.com/netlogistics/lsl/internal/stats"
	"github.com/netlogistics/lsl/internal/topo"
	"github.com/netlogistics/lsl/internal/workload"
)

// AggregateResult is the outcome of the Section 4.2 PlanetLab-style
// run, backing Figures 9 and 10, the crossover-percentile table, and
// the 26%-of-paths statistic.
type AggregateResult struct {
	Hosts           int
	RelayedFraction float64
	Measurements    int
	SkippedTests    int
	Rows            []stats.SizeRow
}

// AggregateConfig tunes the Figure 9/10 experiment. The pool is always
// the paper's 142 hosts, each pair primed with aggregatePrime samples
// and planned at the paper's ε.
type AggregateConfig struct {
	Seed         int64
	Measurements int     // executed measurements (paper: 362,895)
	ReplanEvery  int     // measurements between replans (paper: 5-minute cadence)
	LoadDrift    float64 // per-measurement σ of the slow host-load walk (0 = static loads)
}

// aggregatePrime is the NWS history per pair before the first plan.
const aggregatePrime = 20

// DefaultAggregate returns a configuration that keeps the experiment's
// statistical shape at a laptop-friendly measurement count.
func DefaultAggregate() AggregateConfig {
	return AggregateConfig{
		Seed:         1,
		Measurements: 20000,
		ReplanEvery:  2000,
	}
}

// Aggregate runs the PlanetLab-style random-test evaluation.
func Aggregate(cfg AggregateConfig) (AggregateResult, error) {
	if cfg.Measurements <= 0 {
		cfg = DefaultAggregate()
	}
	t := topo.PlanetLab(topo.DefaultPlanetLab(), cfg.Seed)
	if cfg.LoadDrift > 0 {
		t.EnableLoadDrift(cfg.LoadDrift)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 100))
	planner, err := primedPlanner(t, schedule.DefaultEpsilon, rng, aggregatePrime, false)
	if err != nil {
		return AggregateResult{}, err
	}
	frac, err := planner.RelayedFraction()
	if err != nil {
		return AggregateResult{}, err
	}

	// Concentrate the measurement budget on a pool of pairs for which
	// the scheduler chose depot routes, so each (pair, size) case
	// accumulates several direct and several scheduled observations —
	// the paper's per-case averaging needs both.
	genRng := rand.New(rand.NewSource(cfg.Seed + 300))
	eligible, err := pairPool(t.N(), genRng, max(cfg.Measurements/140, 20), planner.Relayed)
	if err != nil {
		return AggregateResult{}, err
	}
	if len(eligible) == 0 {
		return AggregateResult{}, fmt.Errorf("experiments: scheduler found no depot routes")
	}

	eng := netsim.New(cfg.Seed + 200)
	runner := workload.NewRunner(t, planner, eng, rng)
	runner.ReplanEvery = cfg.ReplanEvery
	runner.FeedObservations = cfg.ReplanEvery > 0
	runner.ReprimeOnReplan = cfg.ReplanEvery > 0 && cfg.LoadDrift > 0
	gen := workload.NewPoolGenerator(eligible, genRng)
	if err := runner.Run(gen, cfg.Measurements); err != nil {
		return AggregateResult{}, err
	}

	return AggregateResult{
		Hosts:           t.N(),
		RelayedFraction: frac,
		Measurements:    runner.Executed(),
		SkippedTests:    runner.Skipped(),
		Rows:            runner.Agg.BySize(),
	}, nil
}

// crossover is a crossover percentile; -1 (speedup never passes 1)
// prints as ">100" in text and as -1 in CSV.
type crossover int

func (c crossover) String() string {
	if c < 0 {
		return ">100"
	}
	return strconv.Itoa(int(c))
}

// sizeColumns are the per-size box-statistics columns shared by the
// Figure 9/10 and Figure 11 tables.
var sizeColumns = []Column{
	{"min", "%8.3f", "min", "%.4f"},
	{"q1", "%8.3f", "q1", "%.4f"},
	{"median", "%8.3f", "median", "%.4f"},
	{"q3", "%8.3f", "q3", "%.4f"},
	{"max", "%8.3f", "max", "%.4f"},
}

// aggregateTable renders the Figure 9/10 report: mean speedup,
// quartiles, and the crossover-percentile table per size.
func aggregateTable(r AggregateResult) Table {
	t := Table{
		Title: fmt.Sprintf("Aggregate scheduling evaluation: %d hosts, %d measurements (%d tests skipped: direct route chosen)\n"+
			"scheduler identified depot routes for %.0f%% of paths",
			r.Hosts, r.Measurements, r.SkippedTests, 100*r.RelayedFraction),
		Columns: append(append([]Column{
			{"size", "%5dM", "size_mb", "%d"},
			{"cases", "%6d", "cases", "%d"},
			{"mean", "%8.3fx", "mean", "%.4f"},
		}, sizeColumns...), Column{"pct>1", "%7s", "pct_over_1", "%d"}),
	}
	for _, row := range r.Rows {
		pct := crossover(row.PctOver)
		if !row.PctOK {
			pct = -1
		}
		t.Rows = append(t.Rows, []any{row.Size >> 20, row.Cases, row.Mean,
			row.Box.Min, row.Box.Q1, row.Box.Median, row.Box.Q3, row.Box.Max, pct})
	}
	return t
}

// CoreConfig tunes the Figure 11 experiment.
type CoreConfig struct {
	Seed    int64
	Reps16  int // repetitions per pair at 16 MB (paper: 10)
	Reps128 int // repetitions per pair at 128 MB (paper: 5)
}

// DefaultCore matches the paper's second experiment.
func DefaultCore() CoreConfig {
	return CoreConfig{Seed: 1, Reps16: 10, Reps128: 5}
}

// CoreResult is the Figure 11 outcome.
type CoreResult struct {
	Universities    int
	Depots          int
	Measurements    int
	RelayedPairs    int
	TotalPairs      int
	Rows            []stats.SizeRow
	SampleRelayPath []string // one planned path, to show core depots got picked
}

// Core runs the Figure 11 experiment: university endpoints on an
// Abilene-like backbone with depots at the core POPs, every ordered
// pair measured directly and over the scheduled route at 16 MB and
// 128 MB. The plan is built once from initial measurements and never
// refreshed, matching the paper ("for the second experiment, it was run
// only initially").
func Core(cfg CoreConfig) (CoreResult, error) {
	if cfg.Reps16 <= 0 {
		cfg = DefaultCore()
	}
	t := topo.AbileneCore(topo.DefaultAbileneCore(), cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	planner, err := primedPlanner(t, schedule.DefaultEpsilon, rng, 3, false)
	if err != nil {
		return CoreResult{}, err
	}

	eng := netsim.New(cfg.Seed + 2)
	runner := workload.NewRunner(t, planner, eng, rng)

	unis := topo.AbileneUniversities(t)
	res := CoreResult{
		Universities: len(unis),
		Depots:       len(t.DepotCandidates()),
	}
	for _, src := range unis {
		for _, dst := range unis {
			if src == dst {
				continue
			}
			res.TotalPairs++
			path, err := runner.MeasurePair(src, dst, 16<<20, cfg.Reps16)
			if err != nil {
				return res, err
			}
			if _, err := runner.MeasurePair(src, dst, 128<<20, cfg.Reps128); err != nil {
				return res, err
			}
			if len(path) > 2 {
				res.RelayedPairs++
				if res.SampleRelayPath == nil {
					for _, h := range path {
						res.SampleRelayPath = append(res.SampleRelayPath, t.Hosts[h].Name)
					}
				}
			}
		}
	}
	res.Measurements = runner.Executed()
	res.Rows = runner.Agg.BySize()
	return res, nil
}

// coreTable renders the Figure 11 box summary per transfer size.
func coreTable(r CoreResult) Table {
	title := fmt.Sprintf("Core-depot evaluation: %d universities, %d core depots, %d measurements\n"+
		"scheduler chose depot routes for %d/%d pairs",
		r.Universities, r.Depots, r.Measurements, r.RelayedPairs, r.TotalPairs)
	if r.SampleRelayPath != nil {
		title += "\nsample scheduled path: " + strings.Join(r.SampleRelayPath, " -> ")
	}
	t := Table{
		Title: title,
		Columns: append([]Column{
			{"size", "%5dM", "size_mb", "%d"},
			{"pairs", "%6d", "pairs", "%d"},
		}, sizeColumns...),
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []any{row.Size >> 20, row.Cases,
			row.Box.Min, row.Box.Q1, row.Box.Median, row.Box.Q3, row.Box.Max})
	}
	return t
}
