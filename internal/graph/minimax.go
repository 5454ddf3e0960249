package graph

import (
	"fmt"
	"math"
	"strings"
)

// Tree is a tree of best paths from a root to every reachable node, as
// produced by MinimaxTree or ShortestPathTree.
type Tree struct {
	G      *Graph
	Root   NodeID
	Parent []NodeID  // Parent[v] precedes v on the root→v path; None if unreachable (or root)
	Cost   []float64 // path cost from root under the tree's metric; Inf if unreachable
}

// MinimaxTree implements the paper's Appendix A algorithm: a greedy
// Dijkstra-like build of a tree of minimax paths from root to all other
// nodes, with ε edge-equivalence tree shaping.
//
// The relaxation replaces the additive step of Dijkstra with
// relaxCost = max(edgeCost, cost[current]), and a candidate improves an
// existing label only when relaxCost·(1+ε) < cost[other] — i.e. an
// alternative must be more than ε better before the tree is reshaped.
// ε=0 yields exact minimax (widest-path) trees; the paper uses ε=0.1 so
// that hosts at the same site, whose measured edges differ only by
// noise, are treated as equivalent and spurious relay hops are not
// added.
func MinimaxTree(g *Graph, root NodeID, epsilon float64) *Tree {
	return MinimaxTreeTransit(g, root, epsilon, nil)
}

// MinimaxTreeTransit generalizes MinimaxTree with per-node transit
// costs, the paper's proposed extension ("the scheduling algorithms can
// be trivially extended to include the path through the host as
// another edge whose bandwidth must be taken into account"):
// forwarding *through* node v contributes transit[v] to the path's
// minimax cost, so the relaxation through an interior node u becomes
// max(cost[u], transit[u], edge(u,v)). Endpoints pay no transit cost.
// transit[v] = +Inf forbids v from forwarding at all (a host that runs
// no depot); a nil transit slice means free transit everywhere.
func MinimaxTreeTransit(g *Graph, root NodeID, epsilon float64, transit []float64) *Tree {
	g.check(root)
	if epsilon < 0 {
		epsilon = 0
	}
	if transit != nil && len(transit) != g.N() {
		panic(fmt.Sprintf("graph: transit slice has %d entries for %d nodes", len(transit), g.N()))
	}
	n := g.N()
	t := &Tree{
		G:      g,
		Root:   root,
		Parent: make([]NodeID, n),
		Cost:   make([]float64, n),
	}
	// open holds the nodes not yet in the tree in index order, so ties
	// go to the lowest index, and label their tentative costs alongside.
	open, label := make([]NodeID, n), make([]float64, n)
	for i := range t.Parent {
		t.Parent[i] = None
		t.Cost[i] = Inf
		open[i], label[i] = NodeID(i), Inf
	}
	t.Cost[root] = 0
	t.Parent[root] = root

	// Each pass adds the cheapest labelled node u, relaxes the edges out
	// of it to the open nodes and, in the same sweep, drops u from the
	// open set and selects the next node to add.
	for u := root; u != None; {
		// Relaxing beyond u makes it an interior (forwarding) node, so
		// its transit cost joins the minimax — unless it is the root,
		// which sends but does not forward. An infinite cost (a missing
		// edge, a node that may not forward) never relaxes a label.
		through := t.Cost[u]
		if transit != nil && u != root {
			if tr := transit[u]; tr > through {
				through = tr
			}
		}
		row := g.cost[int(u)*n : int(u)*n+n]
		next, best, k := None, Inf, 0
		for i, v := range open {
			if v == u {
				continue
			}
			cost, relax := label[i], row[v]
			if through > relax {
				relax = through
			}
			if relax*(1+epsilon) < cost {
				t.Parent[v] = u
				cost = relax
			}
			open[k], label[k] = v, cost
			k++
			if cost < best {
				next, best = v, cost
			}
		}
		open, label = open[:k], label[:k]
		if u = next; u != None { // None: the remaining nodes are unreachable
			t.Cost[u] = best
		}
	}
	t.Parent[root] = None // canonical: the root has no parent
	return t
}

// ShortestPathTree is the classic Dijkstra additive-cost tree, used as a
// baseline against MMP.
func ShortestPathTree(g *Graph, root NodeID) *Tree {
	g.check(root)
	n := g.N()
	t := &Tree{
		G:      g,
		Root:   root,
		Parent: make([]NodeID, n),
		Cost:   make([]float64, n),
	}
	inTree := make([]bool, n)
	for i := range t.Parent {
		t.Parent[i] = None
		t.Cost[i] = Inf
	}
	t.Cost[root] = 0

	for added := 0; added < n; added++ {
		next := None
		best := Inf
		for v := 0; v < n; v++ {
			if !inTree[v] && t.Cost[v] < best {
				best = t.Cost[v]
				next = NodeID(v)
			}
		}
		if next == None {
			break
		}
		inTree[next] = true
		for v := 0; v < n; v++ {
			if inTree[v] {
				continue
			}
			edge := g.Cost(next, NodeID(v))
			if math.IsInf(edge, 1) {
				continue
			}
			if alt := t.Cost[next] + edge; alt < t.Cost[v] {
				t.Parent[v] = next
				t.Cost[v] = alt
			}
		}
	}
	return t
}

// Reachable reports whether dst has a path from the root.
func (t *Tree) Reachable(dst NodeID) bool {
	t.G.check(dst)
	return dst == t.Root || t.Parent[dst] != None
}

// PathTo walks the tree to dst and returns the node sequence
// root,...,dst. It returns nil when dst is unreachable.
func (t *Tree) PathTo(dst NodeID) []NodeID {
	t.G.check(dst)
	if dst == t.Root {
		return []NodeID{t.Root}
	}
	if t.Parent[dst] == None {
		return nil
	}
	var rev []NodeID
	for v := dst; v != None; v = t.Parent[v] {
		rev = append(rev, v)
		if len(rev) > t.G.N() {
			panic("graph: parent cycle in tree")
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Relays returns the intermediate nodes (depots) on the root→dst path,
// excluding the endpoints. An empty result means direct transfer.
func (t *Tree) Relays(dst NodeID) []NodeID {
	p := t.PathTo(dst)
	if len(p) <= 2 {
		return nil
	}
	return p[1 : len(p)-1]
}

// NextHop returns the first hop after the root on the path to dst, or
// None when dst is unreachable or is the root itself.
func (t *Tree) NextHop(dst NodeID) NodeID {
	p := t.PathTo(dst)
	if len(p) < 2 {
		return None
	}
	return p[1]
}

// String renders the tree as indented ASCII, one node per line.
func (t *Tree) String() string {
	children := make(map[NodeID][]NodeID)
	for v := 0; v < t.G.N(); v++ {
		id := NodeID(v)
		if id == t.Root || t.Parent[id] == None {
			continue
		}
		children[t.Parent[id]] = append(children[t.Parent[id]], id)
	}
	var b strings.Builder
	var walk func(v NodeID, depth int)
	walk = func(v NodeID, depth int) {
		fmt.Fprintf(&b, "%s%s (cost %.3g)\n", strings.Repeat("  ", depth), t.G.Name(v), t.Cost[v])
		for _, c := range children[v] {
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
	return b.String()
}
