// Package schedule ties the measurement, forecasting and graph layers
// into the paper's scheduling system: it maintains an NWS monitor over
// a topology's hosts, converts the forecast bandwidth matrix into a
// transfer-time cost graph (cost = 1/bandwidth), builds one ε-damped
// Minimax-Path tree per source, and answers routing queries — either a
// loose source route for the session initiator or per-depot route
// tables for hop-by-hop forwarding.
package schedule

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"github.com/netlogistics/lsl/internal/graph"
	"github.com/netlogistics/lsl/internal/nws"
	"github.com/netlogistics/lsl/internal/topo"
)

// DefaultEpsilon is the paper's edge-equivalence value: an alternative
// edge must be at least 10% better before it reshapes a tree.
const DefaultEpsilon = 0.10

// Planner is the scheduling system of Section 4.
type Planner struct {
	Topo    *topo.Topology
	Monitor *nws.Monitor
	Epsilon float64
	// AggregateSites applies the performance-topology clique
	// aggregation the paper takes from Swany & Wolski: the forecast for
	// an inter-site host pair is replaced by the mean forecast over all
	// host pairs between the two sites. Hosts at one site share the
	// same wide-area connectivity, so averaging both suppresses
	// measurement noise (which otherwise makes spurious relays look
	// >ε better) and makes functionally identical hosts identical in
	// the graph. Enabled by default, as in the paper.
	AggregateSites bool
	// HostTransit makes the planner account for the bandwidth through
	// each depot host ("the bandwidth through the host was not
	// accounted for" is the paper's main self-criticism; extending the
	// algorithm with host edges is its stated future work). When set,
	// forwarding through host m contributes 1/ForwardRate(m) to a
	// path's minimax cost, so overloaded depots stop attracting
	// sessions they will throttle.
	HostTransit bool

	trees   []*graph.Tree // per-source MMP trees from the last Replan
	g       *graph.Graph  // cost graph of the last Replan
	replans int
}

// NewPlanner builds a planner over t with edge-equivalence epsilon
// (negative epsilon selects DefaultEpsilon; zero disables damping).
func NewPlanner(t *topo.Topology, epsilon float64) (*Planner, error) {
	if t.N() < 2 {
		return nil, fmt.Errorf("schedule: topology %q has %d hosts, need >= 2", t.Name, t.N())
	}
	if epsilon < 0 {
		epsilon = DefaultEpsilon
	}
	mon, err := nws.NewMonitor(t.HostNames(), nil)
	if err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	return &Planner{Topo: t, Monitor: mon, Epsilon: epsilon, AggregateSites: true}, nil
}

// Prime feeds the monitor samples measurements of every ordered host
// pair, standing in for the NWS sensors that run continuously on a real
// deployment.
func (p *Planner) Prime(rng *rand.Rand, samples int) error {
	if samples < 1 {
		samples = 1
	}
	names := p.Topo.HostNames()
	for s := 0; s < len(names); s++ {
		for d := 0; d < len(names); d++ {
			if s == d {
				continue
			}
			for k := 0; k < samples; k++ {
				bw := p.Topo.MeasuredBW(s, d, rng)
				if err := p.Monitor.Observe(names[s], names[d], bw); err != nil {
					return fmt.Errorf("schedule: prime: %w", err)
				}
			}
		}
	}
	return nil
}

// Observe records one bandwidth measurement, e.g. the outcome of a real
// transfer fed back into the forecasts.
func (p *Planner) Observe(src, dst string, bw float64) error {
	return p.Monitor.Observe(src, dst, bw)
}

// ErrNotPlanned is returned by queries before the first Replan.
var ErrNotPlanned = errors.New("schedule: no plan built yet (call Replan)")

// Replan snapshots the forecast matrix and rebuilds every source tree.
// Intermediate (relay) positions are restricted to depot hosts: for each
// source's tree, outgoing edges of non-depot hosts other than the
// source are removed, so such hosts can terminate but never forward a
// session.
func (p *Planner) Replan() error {
	mx := p.Monitor.Snapshot()
	if p.AggregateSites {
		mx = p.aggregateSites(mx)
	}
	n := p.Topo.N()
	g, err := CostGraph(mx)
	if err != nil {
		return err
	}
	p.g = g

	// Per-node transit costs encode both rules at once: non-depot
	// hosts may never forward (infinite transit), and with HostTransit
	// a depot's forwarding bandwidth joins the minimax like any other
	// edge.
	transit := p.transitCosts(nil)

	// The trees are independent and each worker writes only its own
	// sources' slots, so the plan does not depend on the worker count.
	p.trees = make([]*graph.Tree, n)
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := w; s < n; s += workers {
				p.trees[s] = graph.MinimaxTreeTransit(g, graph.NodeID(s), p.Epsilon, transit)
			}
		}(w)
	}
	wg.Wait()
	p.replans++
	return nil
}

// aggregateSites replaces every inter-site host-pair forecast with the
// mean of the finite forecasts between the two sites; intra-site
// forecasts are left alone. Sums run in host-pair order, as the means
// always have.
func (p *Planner) aggregateSites(mx nws.Matrix) nws.Matrix {
	n := len(mx.Hosts)
	site := make([]int, n) // host → site id
	ids := make(map[string]int)
	for i := range site {
		name := p.Topo.SiteOf(i)
		if _, ok := ids[name]; !ok {
			ids[name] = len(ids)
		}
		site[i] = ids[name]
	}
	m := len(ids)
	sums, counts := make([]float64, m*m), make([]int, m*m)
	for i := 0; i < n; i++ {
		for j, v := range mx.BW[i] {
			if site[i] == site[j] || math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			sums[site[i]*m+site[j]] += v
			counts[site[i]*m+site[j]]++
		}
	}
	out := nws.Matrix{Hosts: mx.Hosts, BW: make([][]float64, n)}
	for i := 0; i < n; i++ {
		out.BW[i] = append([]float64(nil), mx.BW[i]...)
		for j := range out.BW[i] {
			if k := site[i]*m + site[j]; site[i] != site[j] && counts[k] > 0 {
				out.BW[i][j] = sums[k] / float64(counts[k])
			}
		}
	}
	return out
}

// CostGraph converts a bandwidth forecast matrix into a transfer-time
// cost graph: cost(i,j) = 1/BW(i,j). Pairs with no forecast get no edge.
func CostGraph(mx nws.Matrix) (*graph.Graph, error) {
	g, err := graph.New(mx.Hosts)
	if err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	for i := range mx.Hosts {
		for j := range mx.Hosts {
			if i == j {
				continue
			}
			bw := mx.BW[i][j]
			if math.IsNaN(bw) || bw <= 0 {
				continue
			}
			g.SetCost(graph.NodeID(i), graph.NodeID(j), 1/bw)
		}
	}
	return g, nil
}

// Replans reports how many times the plan has been rebuilt.
func (p *Planner) Replans() int { return p.replans }

// Graph returns the cost graph of the last Replan (nil before any).
func (p *Planner) Graph() *graph.Graph { return p.g }

// Tree returns the MMP tree rooted at host index s.
func (p *Planner) Tree(s int) (*graph.Tree, error) {
	if p.trees == nil {
		return nil, ErrNotPlanned
	}
	if s < 0 || s >= len(p.trees) {
		return nil, fmt.Errorf("schedule: host index %d out of range", s)
	}
	return p.trees[s], nil
}

// Path returns the planned loose-source-route path from src to dst as
// host indices (including the endpoints). A two-element path means the
// scheduler chose direct transfer. It returns nil, ErrNotPlanned before
// Replan and nil, nil when dst is unreachable.
func (p *Planner) Path(src, dst int) ([]int, error) {
	t, err := p.Tree(src)
	if err != nil {
		return nil, err
	}
	nodes := t.PathTo(graph.NodeID(dst))
	if nodes == nil {
		return nil, nil
	}
	path := make([]int, len(nodes))
	for i, id := range nodes {
		path[i] = int(id)
	}
	return path, nil
}

// PathAvoiding recomputes the minimax path from src to dst on the last
// Replan's cost graph with the avoided hosts removed as relays — the
// failover query: when a depot on the planned route dies mid-transfer,
// the surviving topology is re-solved without waiting for the next
// measurement cadence. Avoided hosts get infinite transit cost, so they
// can still terminate a session (src and dst are never excluded) but
// never forward one. Like Path, it returns nil, nil when dst is
// unreachable in the surviving graph; callers degrade to a direct
// transfer in that case.
func (p *Planner) PathAvoiding(src, dst int, avoid map[int]bool) ([]int, error) {
	if p.g == nil {
		return nil, ErrNotPlanned
	}
	n := p.Topo.N()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, fmt.Errorf("schedule: host index out of range")
	}
	t := graph.MinimaxTreeTransit(p.g, graph.NodeID(src), p.Epsilon, p.transitCosts(avoid))
	nodes := t.PathTo(graph.NodeID(dst))
	if nodes == nil {
		return nil, nil
	}
	path := make([]int, len(nodes))
	for i, id := range nodes {
		path[i] = int(id)
	}
	return path, nil
}

// transitCosts builds the per-node transit slice the tree builders
// consume: avoided and non-depot hosts get infinite transit (they may
// terminate a session but never forward one), and with HostTransit a
// depot's forwarding bandwidth joins the minimax like any other edge.
func (p *Planner) transitCosts(avoid map[int]bool) []float64 {
	transit := make([]float64, p.Topo.N())
	for i, h := range p.Topo.Hosts {
		switch {
		case avoid[i] || !h.Depot:
			transit[i] = graph.Inf
		case p.HostTransit && h.ForwardRate > 0:
			transit[i] = 1 / h.ForwardRate
		}
	}
	return transit
}

// Relayed reports whether the planned path src→dst uses at least one
// depot relay.
func (p *Planner) Relayed(src, dst int) (bool, error) {
	path, err := p.Path(src, dst)
	if err != nil {
		return false, err
	}
	return len(path) > 2, nil
}

// RelayedFraction reports the fraction of ordered reachable host pairs
// whose planned route uses depots — the paper's 26% statistic.
func (p *Planner) RelayedFraction() (float64, error) {
	if p.trees == nil {
		return 0, ErrNotPlanned
	}
	var relayed, total int
	for s, t := range p.trees {
		for d := 0; d < p.Topo.N(); d++ {
			if s == d || !t.Reachable(graph.NodeID(d)) {
				continue
			}
			total++
			if len(t.Relays(graph.NodeID(d))) > 0 {
				relayed++
			}
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(relayed) / float64(total), nil
}

// RouteTable reduces host s's tree to depot forwarding state.
func (p *Planner) RouteTable(s int) (graph.RouteTable, error) {
	t, err := p.Tree(s)
	if err != nil {
		return nil, err
	}
	return t.Routes(), nil
}

// StripedBottleneck predicts the end-to-end bandwidth of a transfer
// striped over n parallel sublink chains along path (host indices, as
// returned by Path). A single TCP flow on edge (i,j) is forecast at
// the monitor's bandwidth 1/cost(i,j); n stripes multiply that flow
// rate until the link's physical capacity caps it, so each edge
// contributes min(n × forecast, capacity) and the path moves at the
// narrowest edge — the minimax bottleneck, stripe-aware. Edges with no
// physical capacity record (test topologies) are capped only by the
// forecast. It returns 0 before Replan, for paths shorter than two
// hosts, or when any edge is missing from the cost graph.
func (p *Planner) StripedBottleneck(path []int, n int) float64 {
	if p.g == nil || len(path) < 2 || n < 1 {
		return 0
	}
	bottleneck := math.Inf(1)
	for k := 0; k+1 < len(path); k++ {
		i, j := path[k], path[k+1]
		c := p.g.Cost(graph.NodeID(i), graph.NodeID(j))
		if math.IsInf(c, 1) || c <= 0 {
			return 0
		}
		bw := float64(n) / c
		if l := p.Topo.Link(i, j); l.Valid() && l.Capacity > 0 && l.Capacity < bw {
			bw = l.Capacity
		}
		if bw < bottleneck {
			bottleneck = bw
		}
	}
	return bottleneck
}

// SuggestStripes returns the smallest stripe count in [1, max] beyond
// which StripedBottleneck stops improving on path — the point where
// every edge is capacity-limited and further sublinks only add
// connection overhead. The predicted striped bandwidth is returned
// alongside. max < 1 is treated as 1.
func (p *Planner) SuggestStripes(path []int, max int) (int, float64) {
	if max < 1 {
		max = 1
	}
	best, bw := 1, p.StripedBottleneck(path, 1)
	for n := 2; n <= max; n++ {
		next := p.StripedBottleneck(path, n)
		if next <= bw {
			break
		}
		best, bw = n, next
	}
	return best, bw
}

// AutoEpsilon returns the monitor's mean relative forecast error, the
// paper's suggested automatic ε ("prediction error from the NWS ...
// potentially good candidates for ε"). It falls back to DefaultEpsilon
// when there is not enough history.
func (p *Planner) AutoEpsilon() float64 {
	e := p.Monitor.MeanRelativeError()
	if math.IsNaN(e) || e <= 0 {
		return DefaultEpsilon
	}
	if e > 0.5 {
		e = 0.5
	}
	return e
}
