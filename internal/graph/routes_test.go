package graph

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func lineGraph() *Graph {
	// a - m1 - m2 - b with an expensive direct edge.
	g := MustNew([]string{"a", "m1", "m2", "b"})
	g.SetCostSym(0, 1, 1)
	g.SetCostSym(1, 2, 1)
	g.SetCostSym(2, 3, 1)
	g.SetCostSym(0, 3, 10)
	g.SetCostSym(0, 2, 10)
	g.SetCostSym(1, 3, 10)
	return g
}

var (
	errRoutingLoop = errors.New("hop-by-hop routing loop")
	errNoRoute     = errors.New("no route to destination")
)

// hopByHop resolves src→dst by following each successive node's own
// route table, the way table-driven depots forward. Every node routes
// by its own tree, so the path can differ from the source tree's; a
// missing entry or a revisited node ends the walk with an error.
func hopByHop(p *RoutePlan, src, dst NodeID) ([]NodeID, error) {
	path := []NodeID{src}
	seen := map[NodeID]bool{src: true}
	for cur := src; cur != dst; {
		hop, ok := p.Tables[cur][dst]
		switch {
		case !ok:
			return nil, errNoRoute
		case seen[hop]:
			return nil, errRoutingLoop
		}
		seen[hop] = true
		path = append(path, hop)
		cur = hop
	}
	return path, nil
}

func TestRoutesReduction(t *testing.T) {
	g := lineGraph()
	tree := MinimaxTree(g, 0, 0)
	rt := tree.Routes()
	if rt[3] != 1 {
		t.Fatalf("route to b via %v, want m1", rt[3])
	}
	if rt[1] != 1 {
		t.Fatalf("route to m1 via %v, want m1 itself", rt[1])
	}
	if _, ok := rt[0]; ok {
		t.Fatal("root should have no route entry for itself")
	}
}

func TestBuildRoutePlanAndHopByHop(t *testing.T) {
	g := lineGraph()
	plan := BuildRoutePlan(g, 0)
	path, err := hopByHop(plan, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestHopByHopMatchesSourcePathOnConsistentGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(8, rng)
		plan := BuildRoutePlan(g, 0.1)
		for s := 0; s < g.N(); s++ {
			for d := 0; d < g.N(); d++ {
				if s == d {
					continue
				}
				hbh, err := hopByHop(plan, NodeID(s), NodeID(d))
				if err != nil {
					// Loops are possible in principle with per-node
					// trees; they must be detected, not spun on.
					if errors.Is(err, errRoutingLoop) || errors.Is(err, errNoRoute) {
						continue
					}
					t.Fatal(err)
				}
				if hbh[0] != NodeID(s) || hbh[len(hbh)-1] != NodeID(d) {
					t.Fatalf("endpoints wrong: %v", hbh)
				}
				if len(hbh) > g.N() {
					t.Fatalf("path too long: %v", hbh)
				}
			}
		}
	}
}

func TestHopByHopNoRoute(t *testing.T) {
	g := MustNew([]string{"a", "b", "c"})
	g.SetCostSym(0, 1, 1)
	plan := BuildRoutePlan(g, 0)
	if _, err := hopByHop(plan, 0, 2); !errors.Is(err, errNoRoute) {
		t.Fatalf("err = %v, want errNoRoute", err)
	}
}

func TestSourcePath(t *testing.T) {
	g := lineGraph()
	plan := BuildRoutePlan(g, 0)
	p := plan.SourcePath(0, 3)
	if len(p) != 4 {
		t.Fatalf("source path = %v", p)
	}
	if plan.SourcePath(0, 0)[0] != 0 {
		t.Fatal("source path to self should be the root")
	}
}

func TestRelayedFraction(t *testing.T) {
	g := lineGraph()
	plan := BuildRoutePlan(g, 0)
	frac := plan.RelayedFraction()
	if frac <= 0 || frac > 1 {
		t.Fatalf("relayed fraction = %v", frac)
	}
	// Fully connected cheap graph: no relays at all.
	g2 := MustNew([]string{"a", "b", "c"})
	g2.SetCostSym(0, 1, 1)
	g2.SetCostSym(1, 2, 1)
	g2.SetCostSym(0, 2, 1)
	if f := BuildRoutePlan(g2, 0).RelayedFraction(); f != 0 {
		t.Fatalf("uniform graph relayed fraction = %v, want 0", f)
	}
}

func TestFormatTable(t *testing.T) {
	g := lineGraph()
	plan := BuildRoutePlan(g, 0)
	out := plan.FormatTable(0)
	if !strings.Contains(out, "route table for a") {
		t.Fatalf("unexpected rendering:\n%s", out)
	}
	if !strings.Contains(out, "via") {
		t.Fatalf("no entries rendered:\n%s", out)
	}
}

func TestTreeDOT(t *testing.T) {
	g := MustNew([]string{"ash.ucsb.edu", "oak.ucsb.edu", "bell.uiuc.edu"})
	g.SetCostSym(0, 1, 0.3)
	g.SetCostSym(0, 2, 5.5)
	g.SetCostSym(1, 2, 5.4)
	tree := MinimaxTree(g, 0, 0.1)
	dot := tree.DOT("fig7")
	for _, want := range []string{
		"digraph \"fig7\"",
		"cluster_0",
		"label=\"ucsb.edu\"",
		"label=\"uiuc.edu\"",
		"\"ash.ucsb.edu\" -> ",
		"style=bold",
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Exactly one tree edge per reachable non-root node.
	edges := strings.Count(dot, "->")
	if edges != g.N()-1 {
		t.Fatalf("edges = %d, want %d", edges, g.N()-1)
	}
}
