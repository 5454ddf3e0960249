package core

import (
	"testing"

	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/topo"
)

// TestSystemTelemetryThreading builds a system with the full
// observability configuration and checks one transfer shows up
// everywhere: transfer metrics, depot counters aggregated across
// hosts, and an ordered hop-0 + per-hop trace.
func TestSystemTelemetryThreading(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &obs.MemorySink{}
	sys, err := NewSystem(topo.TwoPath(), Config{
		TimeScale: 0.0005,
		Seed:      1,
		Metrics:   reg,
		Trace:     sink,
		Sessions:  obs.NewSessionTable(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)

	const size = 256 << 10
	res, err := sys.Transfer(topo.UCSB, topo.UIUC, size)
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters[MetricTransfers]; got != 1 {
		t.Fatalf("%s = %d, want 1", MetricTransfers, got)
	}
	if got := snap.Counters[MetricTransferBytes]; got != size {
		t.Fatalf("%s = %d, want %d", MetricTransferBytes, got, size)
	}
	if hs := snap.Histograms[MetricTransferSeconds]; hs.Count != 1 {
		t.Fatalf("%s count = %d", MetricTransferSeconds, hs.Count)
	}
	// The delivering depot reported into the same registry.
	if got := snap.Counters["depot_bytes_delivered_total"]; got != size {
		t.Fatalf("depot_bytes_delivered_total = %d, want %d", got, size)
	}

	// The trace carries the initiator's hop-0 lifecycle, in order, and
	// a deliver event from the final depot at the last hop.
	deliverHop := waitDeliver(t, sink, "").Hop
	var kinds0 []string
	for _, e := range sink.Events() {
		if e.Hop == 0 {
			kinds0 = append(kinds0, e.Kind)
		}
	}
	want := []string{obs.KindConnect, obs.KindFirstByte, obs.KindLastByte}
	if len(kinds0) != len(want) {
		t.Fatalf("hop-0 events = %v, want %v", kinds0, want)
	}
	for i := range want {
		if kinds0[i] != want[i] {
			t.Fatalf("hop-0 events = %v, want %v", kinds0, want)
		}
	}
	wantHops := len(res.Path) - 1
	if deliverHop != wantHops {
		t.Fatalf("deliver at hop %d, want %d (path %v)", deliverHop, wantHops, res.Path)
	}
}
