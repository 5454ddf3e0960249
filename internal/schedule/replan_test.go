package schedule

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/netlogistics/lsl/internal/graph"
	"github.com/netlogistics/lsl/internal/nws"
	"github.com/netlogistics/lsl/internal/topo"
)

// replanTopo is the control plane's canonical three-host line: a and c
// are endpoints at distinct sites, b the only relay-capable depot.
func replanTopo(t *testing.T) *topo.Topology {
	t.Helper()
	tp, err := topo.New("replan-test", []topo.Host{
		{Name: "a", Site: "sa"},
		{Name: "b", Site: "sb", Depot: true},
		{Name: "c", Site: "sc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// observeMesh feeds one full round of pairwise measurements, the way a
// controller round does.
func observeMesh(t *testing.T, p *Planner, bw map[[2]string]float64) {
	t.Helper()
	for pair, v := range bw {
		if err := p.Observe(pair[0], pair[1], v); err != nil {
			t.Fatal(err)
		}
	}
}

// TestObserveCollapseMovesNextHop drives the planner the way the
// controller does: repeated Observe rounds of a collapsing relay leg
// must move the source's route-table next hop off the relay and onto
// the direct path.
func TestObserveCollapseMovesNextHop(t *testing.T) {
	p, err := NewPlanner(replanTopo(t), -1)
	if err != nil {
		t.Fatal(err)
	}
	strong := map[[2]string]float64{
		{"a", "b"}: 100, {"b", "a"}: 100,
		{"b", "c"}: 100, {"c", "b"}: 100,
		{"a", "c"}: 10, {"c", "a"}: 10,
	}
	observeMesh(t, p, strong)
	if err := p.Replan(); err != nil {
		t.Fatal(err)
	}
	rt, err := p.RouteTable(0)
	if err != nil {
		t.Fatal(err)
	}
	if rt[2] != 1 {
		t.Fatalf("next hop a->c = %d, want relay b (1); table %v", rt[2], rt)
	}

	// The relay's exit leg collapses below the direct path. Forecasters
	// weigh history, so one reading is not a forecast — the controller
	// observes every round, and within a few rounds the table must move.
	collapsed := map[[2]string]float64{
		{"a", "b"}: 100, {"b", "a"}: 100,
		{"b", "c"}: 1, {"c", "b"}: 1,
		{"a", "c"}: 10, {"c", "a"}: 10,
	}
	moved := false
	for round := 0; round < 10 && !moved; round++ {
		observeMesh(t, p, collapsed)
		if err := p.Replan(); err != nil {
			t.Fatal(err)
		}
		rt, err = p.RouteTable(0)
		if err != nil {
			t.Fatal(err)
		}
		moved = rt[2] == 2
	}
	if !moved {
		t.Fatalf("next hop a->c never moved to direct after collapse; table %v", rt)
	}
	// The reverse direction must agree: c reaches a directly too.
	rtc, err := p.RouteTable(2)
	if err != nil {
		t.Fatal(err)
	}
	if rtc[0] != 0 {
		t.Fatalf("next hop c->a = %d, want direct (0); table %v", rtc[0], rtc)
	}
}

// TestEpsilonSuppressesJitterReplans is the hysteresis half: forecast
// wobble within ε must reproduce identical route tables across Replans,
// so the controller's diff finds nothing to push.
func TestEpsilonSuppressesJitterReplans(t *testing.T) {
	p, err := NewPlanner(replanTopo(t), -1) // default ε = 0.10
	if err != nil {
		t.Fatal(err)
	}
	base := map[[2]string]float64{
		{"a", "b"}: 100, {"b", "a"}: 100,
		{"b", "c"}: 100, {"c", "b"}: 100,
		{"a", "c"}: 10, {"c", "a"}: 10,
	}
	observeMesh(t, p, base)
	if err := p.Replan(); err != nil {
		t.Fatal(err)
	}
	want := make([]graph.RouteTable, p.Topo.N())
	for s := range want {
		if want[s], err = p.RouteTable(s); err != nil {
			t.Fatal(err)
		}
	}

	// ±3% wobble — well within ε — over several rounds.
	for round := 0; round < 6; round++ {
		jitter := 1.0 + 0.03*float64(1-2*(round%2))
		wobbled := make(map[[2]string]float64, len(base))
		for pair, v := range base {
			wobbled[pair] = v * jitter
		}
		observeMesh(t, p, wobbled)
		if err := p.Replan(); err != nil {
			t.Fatal(err)
		}
		for s := range want {
			got, err := p.RouteTable(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want[s]) {
				t.Fatalf("round %d: host %d table %v, want %v", round, s, got, want[s])
			}
			for dst, next := range want[s] {
				if got[dst] != next {
					t.Fatalf("round %d: host %d route to %d moved %d -> %d under within-ε jitter",
						round, s, dst, next, got[dst])
				}
			}
		}
	}
}

// refAggregateSites is the string-keyed aggregation aggregateSites
// replaced; the means must come out bit for bit the same.
func refAggregateSites(p *Planner, mx nws.Matrix) nws.Matrix {
	n := len(mx.Hosts)
	type pair struct{ a, b string }
	sums, counts := map[pair]float64{}, map[pair]int{}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			si, sj := p.Topo.SiteOf(i), p.Topo.SiteOf(j)
			if v := mx.BW[i][j]; si != sj && !math.IsNaN(v) && !math.IsInf(v, 0) {
				sums[pair{si, sj}] += v
				counts[pair{si, sj}]++
			}
		}
	}
	out := nws.Matrix{Hosts: mx.Hosts, BW: make([][]float64, n)}
	for i := 0; i < n; i++ {
		out.BW[i] = append([]float64(nil), mx.BW[i]...)
		for j := 0; j < n; j++ {
			k := pair{p.Topo.SiteOf(i), p.Topo.SiteOf(j)}
			if k.a != k.b && counts[k] > 0 {
				out.BW[i][j] = sums[k] / float64(counts[k])
			}
		}
	}
	return out
}

// Replan builds its trees on several workers; the plan must be the one
// a serial build over the same graph yields, and the site means those
// of the string-keyed aggregation. Run under -race by `make race`.
func TestParallelReplanMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for seed := int64(1); seed <= 5; seed++ {
		tp := topo.PlanetLab(topo.DefaultPlanetLab(), seed)
		p, err := NewPlanner(tp, DefaultEpsilon)
		if err != nil {
			t.Fatal(err)
		}
		p.HostTransit = seed%2 == 0
		if err := p.Prime(rand.New(rand.NewSource(seed)), 3); err != nil {
			t.Fatal(err)
		}
		if err := p.Replan(); err != nil {
			t.Fatal(err)
		}
		mx := p.Monitor.Snapshot()
		got, want := p.aggregateSites(mx), refAggregateSites(p, mx)
		for i := range got.BW {
			for j := range got.BW[i] {
				if math.Float64bits(got.BW[i][j]) != math.Float64bits(want.BW[i][j]) {
					t.Fatalf("seed %d: site mean [%d][%d] = %v, reference %v", seed, i, j, got.BW[i][j], want.BW[i][j])
				}
			}
		}
		transit := p.transitCosts(nil)
		for s := 0; s < tp.N(); s++ {
			serial := graph.MinimaxTreeTransit(p.Graph(), graph.NodeID(s), p.Epsilon, transit)
			tree, err := p.Tree(s)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(tree.Parent, serial.Parent) || !slices.Equal(tree.Cost, serial.Cost) {
				t.Fatalf("seed %d: tree of source %d differs from the serial build", seed, s)
			}
		}
	}
}
