package experiments

import (
	"fmt"
	"strings"

	"github.com/netlogistics/lsl/internal/graph"
)

// ExampleGraph builds the paper's Figures 6-8 example: two hosts at
// UCSB and two at UIUC plus a pair at a third site, with edge costs
// arranged so that exact minimax (ε=0) lengthens the path from
// ash.ucsb.edu to bell.uiuc.edu through opus.uiuc.edu for a marginal
// 0.4 cost difference, while ε=0.1 treats those edges as equivalent and
// keeps the direct edge.
func ExampleGraph() *graph.Graph {
	g := graph.MustNew([]string{
		"ash.ucsb.edu",
		"oak.ucsb.edu",
		"bell.uiuc.edu",
		"opus.uiuc.edu",
		"kite.utk.edu",
		"knot.utk.edu",
	})
	id := func(n string) graph.NodeID {
		v, ok := g.Lookup(n)
		if !ok {
			panic("experiments: missing node " + n)
		}
		return v
	}
	// Intra-site LAN edges are cheap.
	g.SetCostSym(id("ash.ucsb.edu"), id("oak.ucsb.edu"), 0.3)
	g.SetCostSym(id("bell.uiuc.edu"), id("opus.uiuc.edu"), 0.3)
	g.SetCostSym(id("kite.utk.edu"), id("knot.utk.edu"), 0.3)
	// UCSB <-> UIUC: functionally identical host pairs whose measured
	// costs differ only slightly.
	g.SetCostSym(id("ash.ucsb.edu"), id("opus.uiuc.edu"), 5.1)
	g.SetCostSym(id("ash.ucsb.edu"), id("bell.uiuc.edu"), 5.5)
	g.SetCostSym(id("oak.ucsb.edu"), id("opus.uiuc.edu"), 5.4)
	g.SetCostSym(id("oak.ucsb.edu"), id("bell.uiuc.edu"), 5.6)
	// UCSB <-> UTK and UIUC <-> UTK.
	g.SetCostSym(id("ash.ucsb.edu"), id("kite.utk.edu"), 7.2)
	g.SetCostSym(id("ash.ucsb.edu"), id("knot.utk.edu"), 7.4)
	g.SetCostSym(id("oak.ucsb.edu"), id("kite.utk.edu"), 7.5)
	g.SetCostSym(id("oak.ucsb.edu"), id("knot.utk.edu"), 7.3)
	g.SetCostSym(id("bell.uiuc.edu"), id("kite.utk.edu"), 3.9)
	g.SetCostSym(id("bell.uiuc.edu"), id("knot.utk.edu"), 4.1)
	g.SetCostSym(id("opus.uiuc.edu"), id("kite.utk.edu"), 4.0)
	g.SetCostSym(id("opus.uiuc.edu"), id("knot.utk.edu"), 4.2)
	return g
}

// TreeComparison reproduces Figures 7 and 8: the MMP tree from
// ash.ucsb.edu with ε=0 (over-complex, using marginally better edges)
// and with the given ε (damped).
func TreeComparison(epsilon float64) string {
	return treesTable(epsilon).Text()
}

// treesTable draws both trees as text; its CSV lists every tree edge.
func treesTable(epsilon float64) Table {
	g := ExampleGraph()
	root, _ := g.Lookup("ash.ucsb.edu")
	exact := graph.MinimaxTree(g, root, 0)
	damped := graph.MinimaxTree(g, root, epsilon)
	bell, _ := g.Lookup("bell.uiuc.edu")
	t := Table{
		Title: fmt.Sprintf("MMP tree from ash.ucsb.edu, epsilon=0 (Figure 7):\n%s\n", exact) +
			fmt.Sprintf("MMP tree from ash.ucsb.edu, epsilon=%.2f (Figure 8):\n%s\n", epsilon, damped) +
			fmt.Sprintf("path to bell.uiuc.edu, epsilon=0:    %s\n", pathString(g, exact.PathTo(bell))) +
			fmt.Sprintf("path to bell.uiuc.edu, epsilon=%.2f: %s", epsilon, pathString(g, damped.PathTo(bell))),
		Columns: []Column{
			{Name: "epsilon", CSV: "%g"},
			{Name: "node", CSV: "%s"},
			{Name: "parent", CSV: "%s"},
			{Name: "cost", CSV: "%g"},
		},
	}
	for _, tr := range []struct {
		eps  float64
		tree *graph.Tree
	}{{0, exact}, {epsilon, damped}} {
		for v := 0; v < g.N(); v++ {
			id := graph.NodeID(v)
			if id == tr.tree.Root || tr.tree.Parent[id] == graph.None {
				continue
			}
			t.Rows = append(t.Rows, []any{tr.eps, g.Name(id), g.Name(tr.tree.Parent[id]), tr.tree.Cost[id]})
		}
	}
	return t
}

func pathString(g *graph.Graph, path []graph.NodeID) string {
	if path == nil {
		return "(unreachable)"
	}
	names := make([]string, len(path))
	for i, v := range path {
		names[i] = g.Name(v)
	}
	return strings.Join(names, " -> ")
}
