package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestTransitNilMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(8, rng)
		a := MinimaxTree(g, 0, 0.1)
		b := MinimaxTreeTransit(g, 0, 0.1, nil)
		for v := 0; v < g.N(); v++ {
			if a.Cost[v] != b.Cost[v] || a.Parent[v] != b.Parent[v] {
				t.Fatalf("nil transit diverged at %d", v)
			}
		}
	}
}

func TestTransitZeroMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := randomGraph(8, rng)
	zero := make([]float64, g.N())
	a := MinimaxTree(g, 0, 0)
	b := MinimaxTreeTransit(g, 0, 0, zero)
	for v := 0; v < g.N(); v++ {
		if a.Cost[v] != b.Cost[v] {
			t.Fatalf("zero transit diverged at %d", v)
		}
	}
}

func TestTransitBlocksForwarding(t *testing.T) {
	// a - m - b line; direct a-b expensive. m with infinite transit may
	// terminate paths but not extend them.
	g := MustNew([]string{"a", "m", "b"})
	g.SetCostSym(0, 1, 1)
	g.SetCostSym(1, 2, 1)
	g.SetCostSym(0, 2, 10)
	transit := []float64{0, Inf, 0}
	tree := MinimaxTreeTransit(g, 0, 0, transit)
	// b must be reached directly (cost 10), not via m.
	if p := tree.PathTo(2); len(p) != 2 {
		t.Fatalf("path = %v, want direct", p)
	}
	if tree.Cost[2] != 10 {
		t.Fatalf("cost = %v", tree.Cost[2])
	}
	// m itself is still reachable as an endpoint.
	if !tree.Reachable(1) || tree.Cost[1] != 1 {
		t.Fatalf("m unreachable or mispriced: %v", tree.Cost[1])
	}
}

func TestTransitJoinsMinimax(t *testing.T) {
	// Relay wins without transit cost, loses with it.
	g := MustNew([]string{"a", "m", "b"})
	g.SetCostSym(0, 1, 2)
	g.SetCostSym(1, 2, 2)
	g.SetCostSym(0, 2, 5)

	free := MinimaxTreeTransit(g, 0, 0, []float64{0, 0, 0})
	if p := free.PathTo(2); len(p) != 3 {
		t.Fatalf("free transit path = %v, want relay", p)
	}
	if free.Cost[2] != 2 {
		t.Fatalf("free transit cost = %v", free.Cost[2])
	}

	// Transit 6 through m makes the relayed path cost 6 > direct 5.
	slow := MinimaxTreeTransit(g, 0, 0, []float64{0, 6, 0})
	if p := slow.PathTo(2); len(p) != 2 {
		t.Fatalf("slow transit path = %v, want direct", p)
	}
	if slow.Cost[2] != 5 {
		t.Fatalf("slow transit cost = %v", slow.Cost[2])
	}

	// Transit 3: relay still wins, but the cost reflects the transit.
	mid := MinimaxTreeTransit(g, 0, 0, []float64{0, 3, 0})
	if p := mid.PathTo(2); len(p) != 3 {
		t.Fatalf("mid transit path = %v, want relay", p)
	}
	if mid.Cost[2] != 3 {
		t.Fatalf("mid transit cost = %v, want 3", mid.Cost[2])
	}
}

func TestTransitRootPaysNothing(t *testing.T) {
	// The root sends but does not forward: its own transit cost must
	// not contaminate paths.
	g := MustNew([]string{"a", "b"})
	g.SetCostSym(0, 1, 1)
	tree := MinimaxTreeTransit(g, 0, 0, []float64{Inf, 0})
	if !tree.Reachable(1) || tree.Cost[1] != 1 {
		t.Fatalf("root transit leaked: cost=%v", tree.Cost[1])
	}
}

func TestTransitDestinationPaysNothing(t *testing.T) {
	// Terminating at a node never charges its transit cost.
	g := MustNew([]string{"a", "b"})
	g.SetCostSym(0, 1, 1)
	tree := MinimaxTreeTransit(g, 0, 0, []float64{0, 1000})
	if tree.Cost[1] != 1 {
		t.Fatalf("endpoint charged transit: %v", tree.Cost[1])
	}
}

func TestTransitLengthMismatchPanics(t *testing.T) {
	g := MustNew([]string{"a", "b"})
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	MinimaxTreeTransit(g, 0, 0, []float64{0})
}

func TestTransitCostNeverBelowPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(10, rng)
		transit := make([]float64, g.N())
		for i := range transit {
			transit[i] = rng.Float64() * 5
		}
		plain := MinimaxTree(g, 0, 0)
		withT := MinimaxTreeTransit(g, 0, 0, transit)
		for v := 0; v < g.N(); v++ {
			if withT.Cost[v] < plain.Cost[v]-1e-9 {
				t.Fatalf("transit lowered cost at %d: %v < %v", v, withT.Cost[v], plain.Cost[v])
			}
			if !math.IsInf(plain.Cost[v], 1) && math.IsInf(withT.Cost[v], 1) {
				// Finite transit cannot disconnect a connected graph
				// reachable via direct edges.
				if !math.IsInf(g.Cost(0, NodeID(v)), 1) {
					t.Fatalf("finite transit disconnected %d", v)
				}
			}
		}
	}
}

// refMinimaxTreeTransit is the tree builder before it folded the next
// node's selection into the relaxation sweep: a selection scan, then a
// relaxation over g.Cost per edge.
func refMinimaxTreeTransit(g *Graph, root NodeID, epsilon float64, transit []float64) ([]NodeID, []float64) {
	n := g.N()
	parent, cost, inTree := make([]NodeID, n), make([]float64, n), make([]bool, n)
	for i := range parent {
		parent[i], cost[i] = None, Inf
	}
	cost[root], parent[root] = 0, root
	for added := 0; added < n; added++ {
		next, best := None, Inf
		for v := 0; v < n; v++ {
			if !inTree[v] && cost[v] < best {
				best, next = cost[v], NodeID(v)
			}
		}
		if next == None {
			break
		}
		inTree[next] = true
		through := cost[next]
		if transit != nil && next != root && transit[next] > through {
			through = transit[next]
		}
		if math.IsInf(through, 1) {
			continue
		}
		for v := 0; v < n; v++ {
			edge := g.Cost(next, NodeID(v))
			if inTree[v] || math.IsInf(edge, 1) {
				continue
			}
			relax := math.Max(edge, through)
			if relax*(1+epsilon) < cost[v] {
				parent[v], cost[v] = next, relax
			}
		}
	}
	parent[root] = None
	return parent, cost
}

// The tree builder must pick the same parents, ties included, and the
// same cost bits as the reference on graphs full of equal and missing
// edges and of hosts that may not forward.
func TestMinimaxTreeTransitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 4000; k++ {
		n := 2 + rng.Intn(12)
		g := randomGraph(n, rng)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				c := Inf
				if rng.Intn(4) != 0 {
					c = float64(1+rng.Intn(5)) / float64(1+rng.Intn(3))
				}
				g.SetCost(NodeID(i), NodeID(j), c)
			}
		}
		var transit []float64
		if k%2 == 1 {
			transit = make([]float64, n)
			for i := range transit {
				switch rng.Intn(3) {
				case 0:
					transit[i] = Inf
				case 1:
					transit[i] = rng.Float64() * 3
				}
			}
		}
		eps := []float64{0, 0.1, 0.5}[k%3]
		root := NodeID(rng.Intn(n))
		tree := MinimaxTreeTransit(g, root, eps, transit)
		parent, cost := refMinimaxTreeTransit(g, root, eps, transit)
		for v := 0; v < n; v++ {
			if tree.Parent[v] != parent[v] || math.Float64bits(tree.Cost[v]) != math.Float64bits(cost[v]) {
				t.Fatalf("graph %d node %d: parent %d cost %v, reference %d %v", k, v, tree.Parent[v], tree.Cost[v], parent[v], cost[v])
			}
		}
	}
}
