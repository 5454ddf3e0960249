package experiments

import (
	"strings"
	"testing"

	"github.com/netlogistics/lsl/internal/workload"
)

// TestFairnessProportionalSplit: the fairness experiment must measure
// per-unit throughput near-equal across weight classes — the
// acceptance shape behind EXPERIMENTS.md's table.
func TestFairnessProportionalSplit(t *testing.T) {
	cfg := DefaultFairness()
	cfg.Sessions = 6
	cfg.Weights = []uint16{2, 1}
	cfg.Size = 512 << 10
	r, err := Fairness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.NormalizedJain < 0.85 {
		t.Fatalf("weight-normalized Jain %.3f, want ≥0.85:\n%s",
			r.NormalizedJain, fairnessTable(r).Text())
	}
	if r.PerWeight[2] <= r.PerWeight[1] {
		t.Fatalf("weight 2 mean %.0f not above weight 1 mean %.0f",
			r.PerWeight[2], r.PerWeight[1])
	}
	out := fairnessTable(r).Text()
	if !strings.Contains(out, "Jain index") {
		t.Fatalf("rendering missing Jain line:\n%s", out)
	}
}

// TestLoadgenExperiment: the mesh load harness runs a paced burst load
// with bounded admission and renders its report.
func TestLoadgenExperiment(t *testing.T) {
	tb, err := Loadgen(LoadgenConfig{
		Sessions:    24,
		MaxSessions: 4,
		QueueDepth:  8,
		Arrival:     workload.BurstArrivals{Size: 8, Gap: 5e6}, // 5ms
	})
	if err != nil {
		t.Fatal(err)
	}
	out := tb.Text()
	for _, want := range []string{"sessions 24", "Jain index", "admission:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
