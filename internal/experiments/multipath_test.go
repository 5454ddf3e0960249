package experiments

import "testing"

// TestMultipathAggregatesDisjointRoutes is the sweep's acceptance
// criterion: fanning a transfer across the testbed's two edge-disjoint
// routes must deliver at least 1.5x the best single minimax route,
// with the end-to-end digest intact on every rep.
func TestMultipathAggregatesDisjointRoutes(t *testing.T) {
	cfg := DefaultMultipath()
	cfg.Size = 4 << 20
	cfg.Reps = 2
	rows, err := Multipath(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	single, both := rows[0], rows[1]
	if single.Paths != 1 || both.Paths != 2 {
		t.Fatalf("route counts = %d, %d, want 1, 2", single.Paths, both.Paths)
	}
	if single.Mbit <= 0 || both.Mbit <= 0 {
		t.Fatalf("non-positive throughput: %+v, %+v", single, both)
	}
	if both.Speedup < 1.5 {
		t.Fatalf("aggregate speedup = %.2fx, want >= 1.5x (single %.2f Mbit/s, both %.2f Mbit/s)",
			both.Speedup, single.Mbit, both.Mbit)
	}
	if !single.Verified || !both.Verified {
		t.Fatalf("digest not intact: single=%v both=%v", single.Verified, both.Verified)
	}
	// The planner's aggregate forecast must also see the second route.
	if both.Predicted <= single.Predicted {
		t.Fatalf("forecast did not grow with the second route: %.2f vs %.2f",
			both.Predicted, single.Predicted)
	}

	out := multipathTable(rows).Text()
	if out == "" {
		t.Fatal("empty formatted output")
	}

	n, bw, err := SuggestedPaths(4)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || bw <= 0 {
		t.Fatalf("SuggestedPaths = (%d, %.2f), want 2 meaningful routes", n, bw)
	}
}
