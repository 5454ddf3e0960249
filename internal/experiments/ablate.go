package experiments

import (
	"math/rand"

	"github.com/netlogistics/lsl/internal/graph"
	"github.com/netlogistics/lsl/internal/netsim"
	"github.com/netlogistics/lsl/internal/pipesim"
	"github.com/netlogistics/lsl/internal/schedule"
	"github.com/netlogistics/lsl/internal/stats"
	"github.com/netlogistics/lsl/internal/topo"
	"github.com/netlogistics/lsl/internal/workload"
)

// EpsilonRow summarizes one ε setting in the ablation sweep.
type EpsilonRow struct {
	Epsilon         float64
	RelayedFraction float64
	MeanRelays      float64 // average relays per relayed path
	MeanSpeedup     float64 // measured over a small workload
}

// EpsilonSweep quantifies the tree-shaping tradeoff the paper leaves
// unevaluated ("We have not evaluated the choice of ε"): small ε admits
// noise-driven relays, large ε suppresses genuine wins.
func EpsilonSweep(seed int64, epsilons []float64, measurements int) ([]EpsilonRow, error) {
	if len(epsilons) == 0 {
		epsilons = []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5}
	}
	if measurements <= 0 {
		measurements = 1500
	}
	t := topo.PlanetLab(topo.DefaultPlanetLab(), seed)
	rows := make([]EpsilonRow, 0, len(epsilons))
	for _, eps := range epsilons {
		rng := rand.New(rand.NewSource(seed + 1))
		planner, err := primedPlanner(t, eps, rng, 20, false)
		if err != nil {
			return nil, err
		}
		frac, err := planner.RelayedFraction()
		if err != nil {
			return nil, err
		}

		// Relays per relayed path.
		var relays, relayedPaths int
		var eligible [][2]int
		for s := 0; s < t.N(); s++ {
			tree, err := planner.Tree(s)
			if err != nil {
				return nil, err
			}
			for d := 0; d < t.N(); d++ {
				if s == d {
					continue
				}
				if r := tree.Relays(graph.NodeID(d)); len(r) > 0 {
					relays += len(r)
					relayedPaths++
					eligible = append(eligible, [2]int{s, d})
				}
			}
		}
		row := EpsilonRow{Epsilon: eps, RelayedFraction: frac}
		if relayedPaths > 0 {
			row.MeanRelays = float64(relays) / float64(relayedPaths)
		}

		if len(eligible) > 0 {
			genRng := rand.New(rand.NewSource(seed + 2))
			genRng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
			eligible = eligible[:min(len(eligible), 60)]
			runner := workload.NewRunner(t, planner, netsim.New(seed+3), rng)
			gen := workload.NewPoolGenerator(eligible, genRng)
			gen.MaxExp = 5
			if err := runner.Run(gen, measurements); err != nil {
				return nil, err
			}
			row.MeanSpeedup, _ = meanSpeedup(runner.Agg)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// epsilonTable renders the sweep.
func epsilonTable(rows []EpsilonRow) Table {
	return tableOf("Ablation: edge-equivalence epsilon", []Column{
		{"epsilon", "%8.2f", "epsilon", "%g"},
		{"relayed%", "%9.1f%%", "relayed_pct", "%.2f"},
		{"relays/path", "%11.2f", "relays_per_path", "%.4f"},
		{"mean speedup", "%11.3fx", "mean_speedup", "%.4f"},
	}, rows, func(r EpsilonRow) []any {
		return []any{r.Epsilon, 100 * r.RelayedFraction, r.MeanRelays, r.MeanSpeedup}
	})
}

// BufferRow summarizes one depot-pipeline size.
type BufferRow struct {
	PipelineBytes int64
	Bandwidth     float64 // relayed chain bandwidth, bytes/sec
	MaxLeadBytes  int64   // sublink-1 lead (the Figure 5 knee position)
}

// BufferSweep reruns the Figure 5 chain at several depot pipeline
// sizes: the knee tracks the buffer, and throughput is insensitive once
// the buffer covers the bandwidth-delay product.
func BufferSweep(seed int64, sizes []int64) ([]BufferRow, error) {
	if len(sizes) == 0 {
		sizes = []int64{1 << 20, 4 << 20, 16 << 20, 32 << 20, 64 << 20}
	}
	t := topo.TwoPath()
	rows := make([]BufferRow, 0, len(sizes))
	si, mi, di := t.MustHost(topo.UCSB), t.MustHost(topo.Denver), t.MustHost(topo.UIUC)
	for _, pb := range sizes {
		eng := netsim.New(seed)
		rng := rand.New(rand.NewSource(seed + 1))
		chain, err := t.RelayChain([]int{si, mi, di}, 64<<20, rng, true)
		if err != nil {
			return nil, err
		}
		chain.Depots[0].PipelineBytes = pb
		res, err := pipesim.Run(eng, chain)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BufferRow{
			PipelineBytes: pb,
			Bandwidth:     res.Bandwidth,
			MaxLeadBytes:  res.Traces[0].MaxLead(res.Traces[1]),
		})
	}
	return rows, nil
}

// bufferTable renders the sweep.
func bufferTable(rows []BufferRow) Table {
	return tableOf("Ablation: depot pipeline buffer (64MB UCSB->UIUC via Denver)", []Column{
		{"buffer", "%9dM", "buffer_mb", "%d"},
		{"BW Mbit/s", "%14.2f", "bw_mbit", "%.4f"},
		{"max lead MB", "%12.1f", "max_lead_mb", "%.4f"},
	}, rows, func(r BufferRow) []any {
		return []any{r.PipelineBytes >> 20, mbit(r.Bandwidth), float64(r.MaxLeadBytes) / (1 << 20)}
	})
}

// LossRow summarizes the logistical effect at one loss rate.
type LossRow struct {
	Loss      float64
	DirectBW  float64
	RelayedBW float64
	Speedup   float64
}

// LossSweep measures how the logistical effect scales with path loss:
// relaying splits both the RTT and the loss exposure of each sublink,
// so the win grows as loss rises (until timeouts dominate both).
func LossSweep(seed int64, losses []float64) ([]LossRow, error) {
	if len(losses) == 0 {
		losses = []float64{0, 1e-5, 4e-5, 1.6e-4, 6.4e-4}
	}
	rows := make([]LossRow, 0, len(losses))
	const size = 32 << 20
	for _, p := range losses {
		hosts := []topo.Host{
			{Name: "a", Site: "a", SndBuf: 8 << 20, RcvBuf: 8 << 20},
			{Name: "m", Site: "m", SndBuf: 8 << 20, RcvBuf: 8 << 20,
				Depot: true, ForwardRate: 100e6, PipelineBytes: 32 << 20},
			{Name: "b", Site: "b", SndBuf: 8 << 20, RcvBuf: 8 << 20},
		}
		t, err := topo.New("losssweep", hosts)
		if err != nil {
			return nil, err
		}
		t.SetLink(0, 1, topo.Link{RTT: 0.040, Capacity: 16e6, Loss: p / 2})
		t.SetLink(1, 2, topo.Link{RTT: 0.040, Capacity: 16e6, Loss: p / 2})
		t.SetLink(0, 2, topo.Link{RTT: 0.080, Capacity: 16e6, Loss: p})

		eng := netsim.New(seed)
		rng := rand.New(rand.NewSource(seed + 1))
		var direct, relayed float64
		const iters = 5
		for k := 0; k < iters; k++ {
			res, err := pipesim.Run(eng, t.DirectChain(0, 2, size, rng, false))
			if err != nil {
				return nil, err
			}
			direct += res.Bandwidth
			chain, err := t.RelayChain([]int{0, 1, 2}, size, rng, false)
			if err != nil {
				return nil, err
			}
			res, err = pipesim.Run(eng, chain)
			if err != nil {
				return nil, err
			}
			relayed += res.Bandwidth
		}
		direct /= iters
		relayed /= iters
		rows = append(rows, LossRow{Loss: p, DirectBW: direct, RelayedBW: relayed, Speedup: relayed / direct})
	}
	return rows, nil
}

// lossTable renders the sweep.
func lossTable(rows []LossRow) Table {
	return tableOf("Ablation: per-packet loss (32MB, 80ms path split at 40ms)", []Column{
		{"loss", "%10.1e", "loss", "%g"},
		{"direct Mbit/s", "%14.2f", "direct_mbit", "%.4f"},
		{"LSL Mbit/s", "%14.2f", "lsl_mbit", "%.4f"},
		{"speedup", "%8.2fx", "speedup", "%.4f"},
	}, rows, func(r LossRow) []any {
		return []any{r.Loss, mbit(r.DirectBW), mbit(r.RelayedBW), r.Speedup}
	})
}

// FreshnessRow compares scheduling freshness policies.
type FreshnessRow struct {
	Policy      string
	MeanSpeedup float64
	Cases       int
}

// FreshnessSweep contrasts the paper's two operating modes: replanning
// every few minutes on fresh measurements (experiment 1) versus a
// single static plan (experiment 2). Host loads drift slowly over the
// run (an AR(1) walk advanced once per measurement), so a static plan
// ages while replanning tracks — "the frequency with which the
// algorithm can consider current network information ... are key
// issues with broader use of this approach."
func FreshnessSweep(seed int64, measurements int) ([]FreshnessRow, error) {
	if measurements <= 0 {
		measurements = 2000
	}
	policies := []struct {
		name        string
		replanEvery int
	}{
		{"static plan", 0},
		{"replan every 250", 250},
		{"replan every 50", 50},
	}
	rows := make([]FreshnessRow, 0, len(policies))
	for _, pol := range policies {
		cfg := AggregateConfig{
			Seed:         seed,
			Measurements: measurements,
			ReplanEvery:  pol.replanEvery,
			LoadDrift:    0.04,
		}
		res, err := Aggregate(cfg)
		if err != nil {
			return nil, err
		}
		var sum float64
		var n int
		for _, row := range res.Rows {
			sum += row.Mean * float64(row.Cases)
			n += row.Cases
		}
		out := FreshnessRow{Policy: pol.name, Cases: n}
		if n > 0 {
			out.MeanSpeedup = sum / float64(n)
		}
		rows = append(rows, out)
	}
	return rows, nil
}

// freshnessTable renders the sweep.
func freshnessTable(rows []FreshnessRow) Table {
	return tableOf("Ablation: scheduling freshness", []Column{
		{"policy", "%-20s", "policy", "%s"},
		{"mean speedup", "%11.3fx", "mean_speedup", "%.4f"},
		{"cases", "%8d", "cases", "%d"},
	}, rows, func(r FreshnessRow) []any {
		return []any{r.Policy, r.MeanSpeedup, r.Cases}
	})
}

// BaselineRow compares path metrics.
type BaselineRow struct {
	Metric      string
	MeanSpeedup float64
	MeanHops    float64
	Cases       int
}

// BaselineComparison pits the paper's minimax metric against the
// classic additive shortest-path metric (and against always-direct) on
// identical workloads, validating the claim that a pipelined chain's
// performance is governed by its worst link, not the sum.
func BaselineComparison(seed int64, measurements int) ([]BaselineRow, error) {
	if measurements <= 0 {
		measurements = 4000
	}
	t := topo.PlanetLab(topo.DefaultPlanetLab(), seed)
	planner, err := primedPlanner(t, schedule.DefaultEpsilon, rand.New(rand.NewSource(seed+1)), 20, false)
	if err != nil {
		return nil, err
	}
	g := planner.Graph()

	// Shared pool: pairs where minimax relays.
	pool, err := pairPool(t.N(), rand.New(rand.NewSource(seed+2)), 80, func(s, d int) (bool, error) {
		rel, err := planner.Relayed(s, d)
		return err == nil && rel, nil
	})
	if err != nil {
		return nil, err
	}

	spTrees := make(map[int]*graph.Tree)
	spPath := func(s, d int) ([]int, error) {
		tree, ok := spTrees[s]
		if !ok {
			tree = graph.ShortestPathTree(g, graph.NodeID(s))
			spTrees[s] = tree
		}
		nodes := tree.PathTo(graph.NodeID(d))
		// Shortest-path trees may route through non-depots; clamp those
		// paths to direct, as a deployed system would have to.
		out := make([]int, 0, len(nodes))
		for _, n := range nodes {
			out = append(out, int(n))
		}
		for _, h := range out[1:max(len(out)-1, 1)] {
			if !t.Hosts[h].Depot {
				return []int{s, d}, nil
			}
		}
		return out, nil
	}
	mmPath := func(s, d int) ([]int, error) {
		p, err := planner.Path(s, d)
		if err != nil || p == nil {
			return []int{s, d}, nil
		}
		return p, nil
	}
	directPath := func(s, d int) ([]int, error) { return []int{s, d}, nil }

	// One test schedule shared by every metric (common random numbers),
	// so the comparison reflects the path metric and not sampling noise.
	tests := drawTests(rand.New(rand.NewSource(seed+4)), pool, measurements)
	var rows []BaselineRow
	for _, m := range []struct {
		name  string
		route func(s, d int) ([]int, error)
	}{
		{"minimax (paper)", mmPath},
		{"shortest-path sum", spPath},
		{"always direct", directPath},
	} {
		speedup, relays, n, err := measureTests(t, tests, seed+3, seed+5, m.route)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BaselineRow{Metric: m.name, MeanSpeedup: speedup, MeanHops: relays, Cases: n})
	}
	return rows, nil
}

// primedPlanner builds a planner over t, primes every pair with
// samples NWS observations drawn from rng, and plans once.
func primedPlanner(t *topo.Topology, epsilon float64, rng *rand.Rand, samples int, hostTransit bool) (*schedule.Planner, error) {
	p, err := schedule.NewPlanner(t, epsilon)
	if err != nil {
		return nil, err
	}
	p.HostTransit = hostTransit
	if err := p.Prime(rng, samples); err != nil {
		return nil, err
	}
	return p, p.Replan()
}

// pairPool lists the ordered host pairs keep accepts, shuffled by rng
// and cut to at most limit.
func pairPool(n int, rng *rand.Rand, limit int, keep func(s, d int) (bool, error)) ([][2]int, error) {
	var pool [][2]int
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			ok, err := keep(s, d)
			if err != nil {
				return nil, err
			}
			if ok {
				pool = append(pool, [2]int{s, d})
			}
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:min(len(pool), limit)], nil
}

// testCase is one pre-drawn measurement of a common-random-numbers
// comparison: every variant measures the same schedule.
type testCase struct {
	pair      [2]int
	size      int64
	scheduled bool
}

// drawTests draws n tests over the pool: a pair, a size of 1-64 MB,
// and whether the test goes direct or over the scheduled route.
func drawTests(rng *rand.Rand, pool [][2]int, n int) []testCase {
	tests := make([]testCase, n)
	for i := range tests {
		tests[i] = testCase{
			pair:      pool[rng.Intn(len(pool))],
			size:      int64(1) << (20 + rng.Intn(7)),
			scheduled: rng.Intn(2) == 0,
		}
	}
	return tests
}

// measureTests runs the tests on t — scheduled ones over route(s, d),
// the rest direct — and returns the mean per-case speedup, the mean
// relays per scheduled test, and the number of cases.
func measureTests(t *topo.Topology, tests []testCase, engSeed, loadSeed int64, route func(s, d int) ([]int, error)) (speedup, relays float64, cases int, err error) {
	eng := netsim.New(engSeed)
	loadRng := rand.New(rand.NewSource(loadSeed))
	agg := stats.NewSpeedupAggregator()
	var hops, scheduled int
	for _, tc := range tests {
		s, d := tc.pair[0], tc.pair[1]
		path := []int{s, d}
		if tc.scheduled {
			if path, err = route(s, d); err != nil {
				return 0, 0, 0, err
			}
			hops += len(path) - 2
			scheduled++
		}
		var chain pipesim.Chain
		if len(path) > 2 {
			if chain, err = t.RelayChain(path, tc.size, loadRng, false); err != nil {
				return 0, 0, 0, err
			}
		} else {
			chain = t.DirectChain(s, d, tc.size, loadRng, false)
		}
		res, err := pipesim.Run(eng, chain)
		if err != nil {
			return 0, 0, 0, err
		}
		key := stats.CaseKey{Source: t.Hosts[s].Name, Dest: t.Hosts[d].Name, Size: tc.size}
		if tc.scheduled {
			agg.AddScheduled(key, res.Bandwidth)
		} else {
			agg.AddDirect(key, res.Bandwidth)
		}
	}
	speedup, cases = meanSpeedup(agg)
	if scheduled > 0 {
		relays = float64(hops) / float64(scheduled)
	}
	return speedup, relays, cases, nil
}

// meanSpeedup is the mean speedup over every case, and the case count.
func meanSpeedup(agg *stats.SpeedupAggregator) (float64, int) {
	var sum float64
	var n int
	for _, xs := range agg.Speedups() {
		for _, x := range xs {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// baselineTable renders the comparison.
func baselineTable(rows []BaselineRow) Table {
	return tableOf("Ablation: path metric (same relayed-pair pool)", []Column{
		{"metric", "%-20s", "metric", "%s"},
		{"mean speedup", "%11.3fx", "mean_speedup", "%.4f"},
		{"relays/path", "%12.2f", "relays_per_path", "%.4f"},
		{"cases", "%8d", "cases", "%d"},
	}, rows, func(r BaselineRow) []any {
		return []any{r.Metric, r.MeanSpeedup, r.MeanHops, r.Cases}
	})
}
