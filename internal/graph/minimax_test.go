package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomGraph builds a random complete symmetric graph.
func randomGraph(n int, rng *rand.Rand) *Graph {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	g := MustNew(names)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.SetCostSym(NodeID(i), NodeID(j), 0.1+rng.Float64()*10)
		}
	}
	return g
}

// bruteMinimax computes the true minimax cost from src to dst by
// threshold search: the smallest edge cost c such that dst is reachable
// from src using only edges <= c.
func bruteMinimax(g *Graph, src, dst NodeID) float64 {
	n := g.N()
	var costs []float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && !math.IsInf(g.Cost(NodeID(i), NodeID(j)), 1) {
				costs = append(costs, g.Cost(NodeID(i), NodeID(j)))
			}
		}
	}
	best := math.Inf(1)
	for _, c := range costs {
		if c >= best {
			continue
		}
		if reachableUnder(g, src, dst, c) {
			best = c
		}
	}
	return best
}

func reachableUnder(g *Graph, src, dst NodeID, limit float64) bool {
	n := g.N()
	seen := make([]bool, n)
	stack := []NodeID{src}
	seen[src] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == dst {
			return true
		}
		for w := 0; w < n; w++ {
			if seen[w] {
				continue
			}
			c := g.Cost(v, NodeID(w))
			if !math.IsInf(c, 1) && c <= limit {
				seen[w] = true
				stack = append(stack, NodeID(w))
			}
		}
	}
	return false
}

func TestMinimaxMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(8)
		g := randomGraph(n, rng)
		root := NodeID(rng.Intn(n))
		tree := MinimaxTree(g, root, 0)
		for v := 0; v < n; v++ {
			if NodeID(v) == root {
				continue
			}
			want := bruteMinimax(g, root, NodeID(v))
			if math.Abs(tree.Cost[v]-want) > 1e-9 {
				t.Fatalf("trial %d: cost[%d] = %v, brute force %v", trial, v, tree.Cost[v], want)
			}
		}
	}
}

func TestTreeCostConsistentWithParents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(10, rng)
		for _, eps := range []float64{0, 0.1, 0.3} {
			tree := MinimaxTree(g, 0, eps)
			for v := 0; v < g.N(); v++ {
				path := tree.PathTo(NodeID(v))
				if path == nil {
					continue
				}
				got, err := g.PathCost(path)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-tree.Cost[v]) > 1e-9 {
					t.Fatalf("eps=%v: walked cost %v != label %v", eps, got, tree.Cost[v])
				}
			}
		}
	}
}

func TestEpsilonNeverImprovesCost(t *testing.T) {
	// ε makes trees simpler, never cheaper: label costs with ε>0 are
	// >= the exact minimax labels, and within (1+ε)^depth of them.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(12, rng)
		exact := MinimaxTree(g, 0, 0)
		damped := MinimaxTree(g, 0, 0.1)
		for v := 0; v < g.N(); v++ {
			if damped.Cost[v] < exact.Cost[v]-1e-9 {
				t.Fatalf("ε tree found cheaper path: %v < %v", damped.Cost[v], exact.Cost[v])
			}
		}
	}
}

func TestEpsilonReducesRelays(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var relExact, relDamped int
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(12, rng)
		relExact += relayedCount(MinimaxTree(g, 0, 0))
		relDamped += relayedCount(MinimaxTree(g, 0, 0.2))
	}
	if relDamped > relExact {
		t.Fatalf("ε=0.2 used more relays (%d) than ε=0 (%d)", relDamped, relExact)
	}
}

// relayedCount counts the destinations t routes through at least one
// relay.
func relayedCount(t *Tree) int {
	n := 0
	for v := 0; v < t.G.N(); v++ {
		if len(t.Relays(NodeID(v))) > 0 {
			n++
		}
	}
	return n
}

func TestPaperEpsilonExample(t *testing.T) {
	// The Figure 7/8 situation: direct edge 5.5, relay path with max
	// edge 5.1. Exact minimax relays; ε=0.1 keeps the direct edge
	// because 5.1·1.1 > 5.5.
	g := MustNew([]string{"ash", "opus", "bell"})
	ash, _ := g.Lookup("ash")
	opus, _ := g.Lookup("opus")
	bell, _ := g.Lookup("bell")
	g.SetCostSym(ash, opus, 5.1)
	g.SetCostSym(opus, bell, 0.3)
	g.SetCostSym(ash, bell, 5.5)

	exact := MinimaxTree(g, ash, 0)
	if got := exact.PathTo(bell); len(got) != 3 {
		t.Fatalf("exact path = %v, want relay via opus", got)
	}
	damped := MinimaxTree(g, ash, 0.1)
	if got := damped.PathTo(bell); len(got) != 2 {
		t.Fatalf("ε path = %v, want direct", got)
	}
}

func TestUnreachableNodes(t *testing.T) {
	g := MustNew([]string{"a", "b", "c"})
	g.SetCostSym(0, 1, 1)
	// c is isolated.
	tree := MinimaxTree(g, 0, 0)
	if tree.Reachable(2) {
		t.Fatal("isolated node reported reachable")
	}
	if tree.PathTo(2) != nil {
		t.Fatal("path to unreachable node")
	}
	if tree.NextHop(2) != None {
		t.Fatal("next hop to unreachable node")
	}
	if !tree.Reachable(1) {
		t.Fatal("neighbor should be reachable")
	}
}

func TestPathToRoot(t *testing.T) {
	g := MustNew([]string{"a", "b"})
	g.SetCostSym(0, 1, 1)
	tree := MinimaxTree(g, 0, 0)
	p := tree.PathTo(0)
	if len(p) != 1 || p[0] != 0 {
		t.Fatalf("path to root = %v", p)
	}
	if tree.NextHop(0) != None {
		t.Fatal("NextHop(root) should be None")
	}
}

func TestRelays(t *testing.T) {
	g := MustNew([]string{"a", "m", "b"})
	g.SetCostSym(0, 1, 1)
	g.SetCostSym(1, 2, 1)
	g.SetCostSym(0, 2, 10)
	tree := MinimaxTree(g, 0, 0)
	relays := tree.Relays(2)
	if len(relays) != 1 || relays[0] != 1 {
		t.Fatalf("relays = %v", relays)
	}
	if tree.NextHop(2) != 1 {
		t.Fatalf("next hop = %v", tree.NextHop(2))
	}
}

func TestShortestPathTree(t *testing.T) {
	// Triangle where minimax and shortest path disagree: a-b direct
	// cost 5; a-m-b costs 3+3 (sum 6 > 5 but max 3 < 5).
	g := MustNew([]string{"a", "m", "b"})
	g.SetCostSym(0, 1, 3)
	g.SetCostSym(1, 2, 3)
	g.SetCostSym(0, 2, 5)
	sp := ShortestPathTree(g, 0)
	if got := sp.PathTo(2); len(got) != 2 {
		t.Fatalf("shortest path = %v, want direct", got)
	}
	if sp.Cost[2] != 5 {
		t.Fatalf("sp cost = %v", sp.Cost[2])
	}
	mm := MinimaxTree(g, 0, 0)
	if got := mm.PathTo(2); len(got) != 3 {
		t.Fatalf("minimax path = %v, want relay", got)
	}
}

func TestShortestPathMatchesClassic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(8, rng)
		sp := ShortestPathTree(g, 0)
		for v := 0; v < g.N(); v++ {
			path := sp.PathTo(NodeID(v))
			if path == nil {
				continue
			}
			sum, err := g.PathSum(path)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(sum-sp.Cost[v]) > 1e-9 {
				t.Fatalf("walked sum %v != label %v", sum, sp.Cost[v])
			}
			// No single edge can beat the tree path.
			if direct := g.Cost(0, NodeID(v)); direct < sp.Cost[v]-1e-9 {
				t.Fatalf("direct edge %v cheaper than sp label %v", direct, sp.Cost[v])
			}
		}
	}
}

func TestTreeString(t *testing.T) {
	g := MustNew([]string{"a", "b"})
	g.SetCostSym(0, 1, 1)
	if s := MinimaxTree(g, 0, 0).String(); s == "" {
		t.Fatal("empty tree rendering")
	}
}
