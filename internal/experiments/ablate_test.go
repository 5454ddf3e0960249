package experiments

import (
	"strings"
	"testing"
)

func TestEpsilonSweepMonotoneRelays(t *testing.T) {
	rows, err := EpsilonSweep(1, []float64{0, 0.1, 0.3}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].RelayedFraction > rows[i-1].RelayedFraction+0.01 {
			t.Fatalf("relayed fraction rose with epsilon: %+v", rows)
		}
	}
	// ε=0 must relay the vast majority (noise ties); ε=0.3 a minority.
	if rows[0].RelayedFraction < 0.8 {
		t.Fatalf("ε=0 relayed only %.2f", rows[0].RelayedFraction)
	}
	if rows[2].RelayedFraction > 0.4 {
		t.Fatalf("ε=0.3 relayed %.2f", rows[2].RelayedFraction)
	}
	if !strings.Contains(epsilonTable(rows).Text(), "epsilon") {
		t.Fatal("rendering incomplete")
	}
}

func TestBufferSweepKneeTracksBuffer(t *testing.T) {
	rows, err := BufferSweep(1, []int64{2 << 20, 8 << 20, 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].MaxLeadBytes < rows[i-1].MaxLeadBytes {
			t.Fatalf("lead not monotone in buffer: %+v", rows)
		}
	}
	// Small buffers: lead ≈ buffer (+ in-flight window).
	if lead := rows[0].MaxLeadBytes; lead > rows[0].PipelineBytes+(2<<20) {
		t.Fatalf("lead %d far exceeds 2MB pipeline", lead)
	}
	// Throughput stays within a few percent across buffers (the
	// bottleneck sublink governs).
	for _, r := range rows[1:] {
		ratio := r.Bandwidth / rows[0].Bandwidth
		if ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("throughput sensitive to buffer: %+v", rows)
		}
	}
	if !strings.Contains(bufferTable(rows).Text(), "buffer") {
		t.Fatal("rendering incomplete")
	}
}

func TestLossSweepSpeedupGrows(t *testing.T) {
	rows, err := LossSweep(1, []float64{1e-5, 1.6e-4, 6.4e-4})
	if err != nil {
		t.Fatal(err)
	}
	if rows[len(rows)-1].Speedup <= rows[0].Speedup {
		t.Fatalf("speedup should grow with loss: %+v", rows)
	}
	for _, r := range rows {
		if r.RelayedBW <= 0 || r.DirectBW <= 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
	}
	if !strings.Contains(lossTable(rows).Text(), "loss") {
		t.Fatal("rendering incomplete")
	}
}

func TestFreshnessSweepRuns(t *testing.T) {
	rows, err := FreshnessSweep(1, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Cases == 0 || r.MeanSpeedup <= 0 {
			t.Fatalf("empty row: %+v", r)
		}
	}
	if !strings.Contains(freshnessTable(rows).Text(), "policy") {
		t.Fatal("rendering incomplete")
	}
}

func TestBaselineComparison(t *testing.T) {
	rows, err := BaselineComparison(1, 900)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Minimax relays; the additive metric essentially never does on a
	// fully connected graph; always-direct never does by construction.
	if rows[0].MeanHops < 1 {
		t.Fatalf("minimax relays/path = %.2f, want >= 1", rows[0].MeanHops)
	}
	if rows[1].MeanHops > 0.2 {
		t.Fatalf("shortest-path relays/path = %.2f, want ≈0", rows[1].MeanHops)
	}
	if rows[2].MeanHops != 0 {
		t.Fatalf("always-direct relays/path = %.2f", rows[2].MeanHops)
	}
	// Common random numbers: the two non-relaying policies measure the
	// same schedule, so their means coincide closely.
	diff := rows[1].MeanSpeedup - rows[2].MeanSpeedup
	if diff < -0.02 || diff > 0.02 {
		t.Fatalf("non-relaying baselines diverged: %+v", rows)
	}
	if !strings.Contains(baselineTable(rows).Text(), "minimax") {
		t.Fatal("rendering incomplete")
	}
}
