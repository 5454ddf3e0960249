package experiments

import (
	"fmt"
	"slices"
	"strings"

	"github.com/netlogistics/lsl/internal/workload"
)

// Params are the knobs cmd/lsl-exp exposes as flags; each entry reads
// the ones it needs.
type Params struct {
	Seed         int64
	Iterations   int     // runs per configuration for the Section 3 figures (paper: 10)
	Measurements int     // aggregate-evaluation budget (paper: 362,895)
	Epsilon      float64 // edge equivalence for the tree comparison
	Stripes      int     // largest stripe count of the striping sweep (doubling from 1)
	Paths        int     // largest route count of the multipath sweep (1..N)
	Sessions     int     // fairness/loadgen session count (0 = experiment default)
	Arrival      workload.ArrivalProcess
	Reliable     bool // loadgen: route transfers through retry + failover
	MaxSessions  int  // loadgen per-depot concurrent session cap (0 = unlimited)
	QueueDepth   int  // loadgen per-depot admission queue depth
}

// DefaultParams are the parameters behind the golden output.
func DefaultParams() Params {
	lg := DefaultLoadgen()
	return Params{
		Seed:         1,
		Iterations:   10,
		Measurements: 20000,
		Epsilon:      0.1,
		Stripes:      8,
		Paths:        2,
		MaxSessions:  lg.MaxSessions,
		QueueDepth:   lg.QueueDepth,
	}
}

// Entry is one registered experiment.
type Entry struct {
	Name    string
	Aliases []string
	// Ids are the DESIGN.md §4 rows the entry regenerates. An entry
	// without ids is a tool: "all" skips it and it runs only by name.
	Ids []string
	// Emu marks an entry that runs over the emulated stack on the wall
	// clock, so its numbers vary from run to run.
	Emu bool
	Doc string // one line for the usage text
	Run func(Params) ([]Table, error)
}

// render adapts a typed runner's result to an entry's tables.
func render[R any](table func(R) Table) func(R, error) ([]Table, error) {
	return func(r R, err error) ([]Table, error) {
		if err != nil {
			return nil, err
		}
		return []Table{table(r)}, nil
	}
}

// registry lists every entry in the order "all" runs them.
var registry = append([]Entry{
	{Name: "rtts", Ids: []string{"TAB-RTT"}, Doc: "Section 3 RTT table",
		Run: func(Params) ([]Table, error) {
			t, err := rttTable()
			return []Table{t}, err
		}},
	{Name: "trees", Ids: []string{"FIG6-8"}, Doc: "Figures 6-8: MMP trees with and without ε",
		Run: func(p Params) ([]Table, error) { return []Table{treesTable(p.Epsilon)}, nil }},
	{Name: "fig2", Ids: []string{"FIG2"}, Doc: "Figure 2: direct vs LSL bandwidth, UCSB→UIUC",
		Run: func(p Params) ([]Table, error) { return render(curveTable)(Fig2(p.Seed, p.Iterations)) }},
	{Name: "fig3", Ids: []string{"FIG3"}, Doc: "Figure 3: direct vs LSL bandwidth, UCSB→UF",
		Run: func(p Params) ([]Table, error) { return render(curveTable)(Fig3(p.Seed, p.Iterations)) }},
	{Name: "fig4", Ids: []string{"FIG4"}, Doc: "Figure 4: sequence traces via Houston",
		Run: func(p Params) ([]Table, error) { return render(tracesTable)(Fig4(p.Seed, p.Iterations)) }},
	{Name: "fig5", Ids: []string{"FIG5"}, Doc: "Figure 5: sequence traces via Denver (32 MB knee)",
		Run: func(p Params) ([]Table, error) { return render(tracesTable)(Fig5(p.Seed, p.Iterations)) }},
	{Name: "fig9", Aliases: []string{"fig10", "pct"}, Ids: []string{"FIG9", "FIG10", "TAB-PCT", "STAT-26"},
		Doc: "Figures 9-10 + percentile table + 26% statistic",
		Run: func(p Params) ([]Table, error) {
			cfg := DefaultAggregate()
			cfg.Seed = p.Seed
			cfg.Measurements = p.Measurements
			return render(aggregateTable)(Aggregate(cfg))
		}},
	{Name: "fig11", Ids: []string{"FIG11"}, Doc: "Figure 11: core-depot box statistics",
		Run: func(p Params) ([]Table, error) {
			cfg := DefaultCore()
			cfg.Seed = p.Seed
			return render(coreTable)(Core(cfg))
		}},
	{Name: "striping", Ids: []string{"EXT-STRIPE"}, Emu: true, Doc: "parallel-sublink throughput sweep (1..N stripes)",
		Run: func(p Params) ([]Table, error) {
			cfg := DefaultStriping()
			cfg.Seed = p.Seed
			cfg.Stripes = nil
			for n := 1; n <= p.Stripes; n *= 2 {
				cfg.Stripes = append(cfg.Stripes, n)
			}
			rows, err := Striping(cfg)
			if err != nil {
				return nil, err
			}
			n, bw, err := SuggestedStripes(p.Stripes)
			if err != nil {
				return nil, err
			}
			t := stripingTable(rows)
			t.Notes = append(t.Notes, "", fmt.Sprintf("scheduler suggests %d stripes (forecast %.2f Mbit/s)", n, bw))
			return []Table{t}, nil
		}},
	{Name: "multipath", Ids: []string{"EXT-MULTI"}, Emu: true, Doc: "one transfer fanned across edge-disjoint depot routes",
		Run: func(p Params) ([]Table, error) {
			cfg := DefaultMultipath()
			cfg.Seed = p.Seed
			cfg.Paths = nil
			for n := 1; n <= p.Paths; n++ {
				cfg.Paths = append(cfg.Paths, n)
			}
			rows, err := Multipath(cfg)
			if err != nil {
				return nil, err
			}
			n, bw, err := SuggestedPaths(p.Paths)
			if err != nil {
				return nil, err
			}
			t := multipathTable(rows)
			t.Notes = append(t.Notes, "", fmt.Sprintf("scheduler suggests %d disjoint routes (aggregate forecast %.2f Mbit/s)", n, bw))
			return []Table{t}, nil
		}},
	{Name: "fairness", Ids: []string{"EXT-FAIR"}, Emu: true, Doc: "weighted fair-sharing split through one scheduled depot",
		Run: func(p Params) ([]Table, error) {
			cfg := DefaultFairness()
			cfg.Seed = p.Seed
			if p.Sessions > 0 {
				cfg.Sessions = p.Sessions
			}
			return render(fairnessTable)(Fairness(cfg))
		}},
	{Name: "robustness", Ids: []string{"ROBUST"}, Doc: "Figure 9 headlines across five independent seeds",
		Run: func(p Params) ([]Table, error) {
			return render(robustnessTable)(Robustness(nil, p.Measurements/5))
		}},
	{Name: "cacheoffload", Ids: []string{"EXT-CACHE"}, Emu: true, Doc: "repeat transfers served from depot caches, tamper falls back",
		Run: func(p Params) ([]Table, error) {
			return render(cacheOffloadTable)(CacheOffload(CacheOffloadConfig{Seed: p.Seed}))
		}},
	{Name: "integrity", Ids: []string{"EXT-INTEG"}, Emu: true, Doc: "corruption inject-and-recover acceptance sweep",
		Run: func(p Params) ([]Table, error) {
			return render(integrityTable)(Integrity(IntegrityConfig{Seed: p.Seed}))
		}},
	{Name: "ablate", Doc: "all ablation sweeps (ε, buffer, loss, freshness, metric, host, psockets, contention, cwnd)",
		Ids: []string{"ABL-EPS", "ABL-BUF", "ABL-LOSS", "ABL-FRESH", "ABL-METRIC", "EXT-HOST", "EXT-PSOCK", "EXT-CONT", "EXT-CWND"},
		Run: func(p Params) ([]Table, error) { return ablate(p.Seed) }},
	{Name: "nws", Ids: []string{"EXT-NWS"}, Doc: "forecaster-bank evaluation across series regimes",
		Run: func(p Params) ([]Table, error) { return NWSEvaluation(p.Seed) }},
	{Name: "loadgen", Emu: true, Doc: "mesh load/soak harness: concurrent mixed-weight sessions",
		Run: func(p Params) ([]Table, error) {
			t, err := Loadgen(LoadgenConfig{
				Seed:        p.Seed,
				Sessions:    p.Sessions,
				Arrival:     p.Arrival,
				Reliable:    p.Reliable,
				MaxSessions: p.MaxSessions,
				QueueDepth:  p.QueueDepth,
			})
			return []Table{t}, err
		}},
}, topologyTools()...)

// topologyTools are the per-testbed measurement dumps and forecast
// matrices; the bare names run on the two-path testbed.
func topologyTools() []Entry {
	var out []Entry
	for _, topoName := range []string{"twopath", "planetlab", "abilene"} {
		var matrix, weather []string
		if topoName == "twopath" {
			matrix, weather = []string{"matrix"}, []string{"weather"}
		}
		out = append(out,
			Entry{Name: "matrix-" + topoName, Aliases: matrix, Doc: "NWS-style measurements for lsl-sched, " + topoName + " testbed",
				Run: func(p Params) ([]Table, error) {
					t, err := DumpMeasurements(topoName, p.Seed, 5)
					return []Table{t}, err
				}},
			Entry{Name: "weather-" + topoName, Aliases: weather, Doc: "NWS forecast matrix, " + topoName + " testbed",
				Run: func(p Params) ([]Table, error) {
					t, err := Weather(topoName, p.Seed)
					return []Table{t}, err
				}})
	}
	return out
}

// ablate runs the ablation and extension sweeps DESIGN.md §4 lists
// under lsl-exp ablate, one table each, in turn.
func ablate(seed int64) ([]Table, error) {
	var out []Table
	for _, run := range []func() ([]Table, error){
		func() ([]Table, error) { return render(epsilonTable)(EpsilonSweep(seed, nil, 0)) },
		func() ([]Table, error) { return render(bufferTable)(BufferSweep(seed, nil)) },
		func() ([]Table, error) { return render(lossTable)(LossSweep(seed, nil)) },
		func() ([]Table, error) { return render(freshnessTable)(FreshnessSweep(seed, 0)) },
		func() ([]Table, error) { return render(baselineTable)(BaselineComparison(seed, 0)) },
		func() ([]Table, error) { return render(hostAwareTable)(HostAwareComparison(seed, 0)) },
		func() ([]Table, error) { return render(psocketsTable)(PSocketsComparison(seed, 0, nil)) },
		func() ([]Table, error) { return render(contentionTable)(ContentionSweep(seed, nil)) },
		func() ([]Table, error) {
			d, s1, s2, err := CwndTraces(seed, 0)
			if err != nil {
				return nil, err
			}
			return []Table{cwndTable(d, s1, s2)}, nil
		},
	} {
		ts, err := run()
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}

// Lookup resolves a name to the entries it runs: "all" is every entry
// with a DESIGN.md §4 id, any other name one entry by name or alias.
func Lookup(name string) ([]Entry, error) {
	var out []Entry
	for _, e := range registry {
		if name == "all" && len(e.Ids) > 0 || name == e.Name || slices.Contains(e.Aliases, name) {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
	return out, nil
}

// Usage lists every registered name with its aliases and one-line
// description: the experiments "all" runs first, then the tools.
func Usage() string {
	var b strings.Builder
	section := func(head string, tools bool) {
		b.WriteString(head)
		for _, e := range registry {
			if (len(e.Ids) == 0) == tools {
				fmt.Fprintf(&b, "  %-23s %s\n", strings.Join(append([]string{e.Name}, e.Aliases...), "|"), e.Doc)
			}
		}
	}
	section("Experiments (all runs every one):\n", false)
	fmt.Fprintf(&b, "  %-23s %s\n", "all", "every experiment above")
	section("Tools (run by name only):\n", true)
	return b.String()
}
