package experiments

import (
	"strings"
	"testing"

	"github.com/netlogistics/lsl/internal/graph"
)

// Iterations are reduced relative to the paper's 10 runs to keep the
// test suite fast; the assertions target shape, not precision.

func TestFig2Shape(t *testing.T) {
	c, err := Fig2(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Sizes) != 7 || c.Sizes[0] != 1<<20 || c.Sizes[6] != 64<<20 {
		t.Fatalf("sizes = %v", c.Sizes)
	}
	// LSL beats direct at every size (paper's Figure 2 separation).
	for i := range c.Sizes {
		if c.LSLMbit[i] <= c.DirectMbit[i]*0.95 {
			t.Fatalf("size %dM: LSL %.1f <= direct %.1f", c.Sizes[i]>>20, c.LSLMbit[i], c.DirectMbit[i])
		}
	}
	// Bandwidth grows with size for both curves (slow-start
	// amortization): the largest size beats the smallest severalfold.
	if c.LSLMbit[6] < 2*c.LSLMbit[0] {
		t.Fatalf("LSL curve flat: %v", c.LSLMbit)
	}
	if c.DirectMbit[6] < 1.5*c.DirectMbit[0] {
		t.Fatalf("direct curve flat: %v", c.DirectMbit)
	}
	// Steady-state speedup is substantial (paper: ≈2x at 64 MB).
	if sp := c.LSLMbit[6] / c.DirectMbit[6]; sp < 1.3 {
		t.Fatalf("64MB speedup = %.2f", sp)
	}
	if !strings.Contains(curveTable(c).Text(), "UIUC") {
		t.Fatal("rendering should name the path")
	}
}

func TestFig3Shape(t *testing.T) {
	c, err := Fig3(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Sizes) != 8 || c.Sizes[7] != 128<<20 {
		t.Fatalf("sizes = %v", c.Sizes)
	}
	for i := range c.Sizes {
		if c.LSLMbit[i] <= c.DirectMbit[i]*0.95 {
			t.Fatalf("size %dM: LSL %.1f <= direct %.1f", c.Sizes[i]>>20, c.LSLMbit[i], c.DirectMbit[i])
		}
	}
	// The UF path reaches higher absolute bandwidth than the UIUC path
	// (paper: 128 vs 64 Mbit/s scale).
	uiuc, err := Fig2(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.LSLMbit[7] <= uiuc.LSLMbit[6] {
		t.Fatalf("UF plateau %.1f should exceed UIUC plateau %.1f", c.LSLMbit[7], uiuc.LSLMbit[6])
	}
}

func TestFig4Shape(t *testing.T) {
	r, err := Fig4(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4's signature: the two sublink slopes are close (subpath 1
	// is the bottleneck), and the lead stays far below the pipeline.
	ratio := r.Sub1Slope / r.Sub2Slope
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("sublink slope ratio = %.2f, want ≈1", ratio)
	}
	if r.MaxLead > r.DepotPipeline/2 {
		t.Fatalf("lead %.1fMB approaches pipeline %.0fMB; wrong bottleneck",
			float64(r.MaxLead)/(1<<20), float64(r.DepotPipeline)/(1<<20))
	}
	if r.Sub1.Final().Acked != 64<<20 {
		t.Fatalf("sublink 1 moved %d bytes", r.Sub1.Final().Acked)
	}
	if !strings.Contains(tracesTable(r).Text(), "steady slopes") {
		t.Fatal("rendering incomplete")
	}
}

func TestFig5Shape(t *testing.T) {
	r, err := Fig5(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 5's signature: sublink 1 outruns sublink 2 until the depot
	// pipeline fills — the lead approaches the 32 MB pipeline.
	if r.Sub1Slope < 1.2*r.Sub2Slope {
		t.Fatalf("sublink 1 (%.1f MB/s) should outrun sublink 2 (%.1f MB/s)",
			r.Sub1Slope/(1<<20), r.Sub2Slope/(1<<20))
	}
	lead := float64(r.MaxLead)
	pipeline := float64(r.DepotPipeline)
	if lead < 0.5*pipeline {
		t.Fatalf("lead %.1fMB never approached pipeline %.0fMB",
			lead/(1<<20), pipeline/(1<<20))
	}
	if lead > 1.1*pipeline {
		t.Fatalf("lead %.1fMB exceeds pipeline %.0fMB", lead/(1<<20), pipeline/(1<<20))
	}
}

func TestRTTTable(t *testing.T) {
	rows, err := RTTs()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	joined := strings.Join(rows, "\n")
	for _, want := range []string{"87ms", "68ms", "34ms", "70ms", "46ms", "45ms"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %s in:\n%s", want, joined)
		}
	}
}

func TestTreeComparison(t *testing.T) {
	out := TreeComparison(0.1)
	if !strings.Contains(out, "ash.ucsb.edu -> opus.uiuc.edu -> bell.uiuc.edu") {
		t.Fatalf("exact tree should relay via opus:\n%s", out)
	}
	if !strings.Contains(out, "path to bell.uiuc.edu, epsilon=0.10: ash.ucsb.edu -> bell.uiuc.edu") {
		t.Fatalf("ε tree should go direct:\n%s", out)
	}
}

func TestAggregateSmall(t *testing.T) {
	cfg := DefaultAggregate()
	cfg.Measurements = 1200
	cfg.ReplanEvery = 0
	res, err := Aggregate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hosts != 142 {
		t.Fatalf("hosts = %d", res.Hosts)
	}
	if res.Measurements != 1200 {
		t.Fatalf("measurements = %d", res.Measurements)
	}
	// Paper's headline: scheduler picks depots for a minority (~26%).
	if res.RelayedFraction < 0.1 || res.RelayedFraction > 0.6 {
		t.Fatalf("relayed fraction = %.2f", res.RelayedFraction)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no size rows")
	}
	for _, row := range res.Rows {
		if row.Box.Min > row.Box.Median || row.Box.Median > row.Box.Max {
			t.Fatalf("row %v quartiles broken: %+v", row.Size, row.Box)
		}
	}
	if !strings.Contains(aggregateTable(res).Text(), "depot routes") {
		t.Fatal("rendering incomplete")
	}
}

func TestAggregateSpeedupBand(t *testing.T) {
	if testing.Short() {
		t.Skip("full-shape check is slow")
	}
	cfg := DefaultAggregate()
	cfg.Measurements = 6000
	res, err := Aggregate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mean speedups should land near the paper's 1.05-1.09 band; allow
	// a generous envelope for seed variation.
	var sum float64
	for _, row := range res.Rows {
		sum += row.Mean
	}
	mean := sum / float64(len(res.Rows))
	if mean < 0.95 || mean > 1.30 {
		t.Fatalf("grand mean speedup = %.3f, want ≈1.05-1.09", mean)
	}
	// Quartiles straddle 1 for most sizes (paper Figure 10).
	straddle := 0
	for _, row := range res.Rows {
		if row.Box.Q1 < 1 && row.Box.Q3 > 1 {
			straddle++
		}
	}
	if straddle < len(res.Rows)/2 {
		t.Fatalf("only %d/%d rows straddle 1", straddle, len(res.Rows))
	}
}

func TestCoreSmall(t *testing.T) {
	cfg := DefaultCore()
	cfg.Reps16 = 2
	cfg.Reps128 = 1
	res, err := Core(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Universities != 10 || res.Depots != 11 {
		t.Fatalf("shape: %d universities, %d depots", res.Universities, res.Depots)
	}
	if res.TotalPairs != 90 {
		t.Fatalf("pairs = %d", res.TotalPairs)
	}
	// The schedulers should pick core depots for most university pairs.
	if res.RelayedPairs < res.TotalPairs/2 {
		t.Fatalf("relayed pairs = %d/%d", res.RelayedPairs, res.TotalPairs)
	}
	if len(res.SampleRelayPath) < 3 {
		t.Fatalf("sample path = %v", res.SampleRelayPath)
	}
	// Relays must traverse observatory depots.
	mid := res.SampleRelayPath[1 : len(res.SampleRelayPath)-1]
	for _, h := range mid {
		if !strings.Contains(h, "abilene.net") {
			t.Fatalf("relay %s is not a core depot", h)
		}
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 16MB and 128MB", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Median above 1, substantial upside — the Figure 11 shape.
		if row.Box.Median < 1 {
			t.Fatalf("median speedup %.2f < 1 at %v", row.Box.Median, row.Size)
		}
		if row.Box.Max < 1.5 {
			t.Fatalf("max speedup %.2f too small at %v", row.Box.Max, row.Size)
		}
	}
	if !strings.Contains(coreTable(res).Text(), "Core-depot") {
		t.Fatal("rendering incomplete")
	}
}

func TestExampleGraphProperties(t *testing.T) {
	g := ExampleGraph()
	if g.N() != 6 {
		t.Fatalf("nodes = %d", g.N())
	}
	// Graph is symmetric and fully connected.
	for i := 0; i < g.N(); i++ {
		for j := 0; j < g.N(); j++ {
			if i == j {
				continue
			}
			a := g.Cost(graph.NodeID(i), graph.NodeID(j))
			b := g.Cost(graph.NodeID(j), graph.NodeID(i))
			if a != b {
				t.Fatalf("asymmetric edge %d-%d", i, j)
			}
		}
	}
}
