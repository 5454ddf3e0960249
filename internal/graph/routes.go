package graph

import (
	"fmt"
	"sort"
	"strings"
)

// RouteTable is a depot's forwarding state: destination → next hop.
// It is the reduction of an MMP tree described in Section 4.2 of the
// paper ("these destination/next hop tuples form a route table that is
// consumed by the logistical depot").
type RouteTable map[NodeID]NodeID

// Routes reduces the tree to the route table of its root node: for each
// reachable destination, the first hop along the chosen path. The root
// itself and unreachable nodes have no entry.
func (t *Tree) Routes() RouteTable {
	rt := make(RouteTable)
	for v := 0; v < t.G.N(); v++ {
		id := NodeID(v)
		if id == t.Root {
			continue
		}
		if hop := t.NextHop(id); hop != None {
			rt[id] = hop
		}
	}
	return rt
}

// RoutePlan is a complete hop-by-hop routing configuration: one route
// table per node, each derived from that node's own MMP tree.
type RoutePlan struct {
	G       *Graph
	Epsilon float64
	Tables  []RouteTable // indexed by NodeID
	Trees   []*Tree      // the trees the tables were reduced from
}

// BuildRoutePlan computes MMP trees from every node and reduces each to
// a route table.
func BuildRoutePlan(g *Graph, epsilon float64) *RoutePlan {
	n := g.N()
	p := &RoutePlan{
		G:       g,
		Epsilon: epsilon,
		Tables:  make([]RouteTable, n),
		Trees:   make([]*Tree, n),
	}
	for v := 0; v < n; v++ {
		t := MinimaxTree(g, NodeID(v), epsilon)
		p.Trees[v] = t
		p.Tables[v] = t.Routes()
	}
	return p
}

// SourcePath returns the loose-source-route path chosen by src's own
// tree, or nil when dst is unreachable.
func (p *RoutePlan) SourcePath(src, dst NodeID) []NodeID {
	p.G.check(src)
	p.G.check(dst)
	return p.Trees[src].PathTo(dst)
}

// RelayedFraction reports the fraction of ordered reachable (src,dst)
// pairs whose chosen path uses at least one relay — the statistic the
// paper reports as "the scheduler identified better routes via depots
// for 26% of the total number of paths in the system".
func (p *RoutePlan) RelayedFraction() float64 {
	var relayed, total int
	for s := 0; s < p.G.N(); s++ {
		tree := p.Trees[s]
		for d := 0; d < p.G.N(); d++ {
			if s == d || !tree.Reachable(NodeID(d)) {
				continue
			}
			total++
			if len(tree.Relays(NodeID(d))) > 0 {
				relayed++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(relayed) / float64(total)
}

// FormatTable renders one node's route table as sorted text.
func (p *RoutePlan) FormatTable(node NodeID) string {
	p.G.check(node)
	rt := p.Tables[node]
	dests := make([]NodeID, 0, len(rt))
	for d := range rt {
		dests = append(dests, d)
	}
	sort.Slice(dests, func(i, j int) bool {
		return p.G.Name(dests[i]) < p.G.Name(dests[j])
	})
	var b strings.Builder
	fmt.Fprintf(&b, "route table for %s:\n", p.G.Name(node))
	for _, d := range dests {
		fmt.Fprintf(&b, "  %-24s via %s\n", p.G.Name(d), p.G.Name(rt[d]))
	}
	return b.String()
}
