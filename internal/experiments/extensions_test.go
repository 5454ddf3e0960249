package experiments

import (
	"strings"
	"testing"
)

func TestHostAwareComparison(t *testing.T) {
	rows, err := HostAwareComparison(1, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	paper, aware := rows[0], rows[1]
	if paper.Cases == 0 || aware.Cases == 0 {
		t.Fatalf("empty rows: %+v", rows)
	}
	// The host-aware variant must not do worse than the paper's
	// scheduler on the same schedule (it prunes relays that depot
	// forwarding would throttle).
	if aware.MeanSpeedup < paper.MeanSpeedup-0.02 {
		t.Fatalf("host-aware (%0.3f) worse than paper (%0.3f)",
			aware.MeanSpeedup, paper.MeanSpeedup)
	}
	if !strings.Contains(hostAwareTable(rows).Text(), "host-transit") {
		t.Fatal("rendering incomplete")
	}
}

func TestPSocketsComparison(t *testing.T) {
	rows, err := PSocketsComparison(1, 16<<20, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // direct, x2, x4, lsl, lsl+x2
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]PSocketsRow{}
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	// Striping multiplies window-limited throughput near-linearly.
	if sp := byName["parallel x2"].Speedup; sp < 1.6 || sp > 2.4 {
		t.Fatalf("parallel x2 speedup = %.2f", sp)
	}
	if sp := byName["parallel x4"].Speedup; sp < 2.8 || sp > 4.6 {
		t.Fatalf("parallel x4 speedup = %.2f", sp)
	}
	// One depot halves the RTT: about 2x.
	if sp := byName["LSL via 1 depot"].Speedup; sp < 1.5 || sp > 2.5 {
		t.Fatalf("LSL speedup = %.2f", sp)
	}
	// The approaches compose.
	if sp := byName["LSL + parallel x2"].Speedup; sp < byName["LSL via 1 depot"].Speedup {
		t.Fatalf("composition did not help: %.2f", sp)
	}
	if !strings.Contains(psocketsTable(rows).Text(), "PSockets") {
		t.Fatal("rendering incomplete")
	}
}

func TestContentionSweep(t *testing.T) {
	rows, err := ContentionSweep(1, []int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Per-session bandwidth decays with concurrency.
	for i := 1; i < len(rows); i++ {
		if rows[i].PerSession >= rows[i-1].PerSession {
			t.Fatalf("per-session bandwidth did not decay: %+v", rows)
		}
	}
	// A lone session through a healthy depot wins (~2x); a saturated
	// depot loses to direct.
	if rows[0].MeanSpeedup < 1.5 {
		t.Fatalf("solo speedup = %.2f", rows[0].MeanSpeedup)
	}
	if rows[2].MeanSpeedup > 0.6 {
		t.Fatalf("saturated speedup = %.2f, expected the depot to lose", rows[2].MeanSpeedup)
	}
	// The aggregate saturates near forwardRate/2 (every byte crosses
	// the engine twice) and never exceeds it.
	for _, r := range rows {
		if mb := r.Aggregate; mb > 3.3e6 {
			t.Fatalf("aggregate %.0f exceeds the shared engine's budget", mb)
		}
	}
	if !strings.Contains(contentionTable(rows).Text(), "contention") {
		t.Fatal("rendering incomplete")
	}
}

func TestCwndTraces(t *testing.T) {
	direct, sub1, sub2, err := CwndTraces(1, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		name string
		tr   interface{ Len() int }
	}{{"direct", direct}, {"sub1", sub1}, {"sub2", sub2}} {
		if s.tr.Len() == 0 {
			t.Fatalf("%s trace empty", s.name)
		}
	}
	// cwnd stays within the 8 MB socket buffers.
	for _, p := range direct.Points {
		if p.Acked > 8<<20 {
			t.Fatalf("direct cwnd %d exceeds window", p.Acked)
		}
	}
	out := cwndTable(direct, sub1, sub2).Text()
	if !strings.Contains(out, "sublink1") {
		t.Fatal("rendering incomplete")
	}
}

func TestRobustness(t *testing.T) {
	rows, err := Robustness([]int64{1, 2}, 800)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.RelayedPct < 10 || r.RelayedPct > 60 {
			t.Fatalf("seed %d relayed %.1f%% outside plausible band", r.Seed, r.RelayedPct)
		}
		if r.MeanSpeedup < 0.8 || r.MeanSpeedup > 1.5 {
			t.Fatalf("seed %d mean speedup %.3f outside plausible band", r.Seed, r.MeanSpeedup)
		}
	}
	if !strings.Contains(robustnessTable(rows).Text(), "across seeds") {
		t.Fatal("rendering incomplete")
	}
}
