package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/topo"
	"github.com/netlogistics/lsl/internal/wire"
)

// TestSystemTelemetryThreading builds a system with the full
// observability configuration and checks one transfer shows up
// everywhere: transfer metrics, depot counters aggregated across
// hosts, and the per-hop trace. Then it runs every transfer mode and
// checks each session's ordered hop-0 lifecycle.
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

	// The trace carries a deliver event from the final depot at the
	// last hop.
	deliverHop := waitDeliver(t, sink, "").Hop
	wantHops := len(res.Path) - 1
	if deliverHop != wantHops {
		t.Fatalf("deliver at hop %d, want %d (path %v)", deliverHop, wantHops, res.Path)
	}

	// Every mode's sessions carry the initiator's hop-0 lifecycle, in
	// order, tagged with their stripe or path index.
	pol := RecoveryPolicy{Retry: fastPolicy(4), AttemptTimeout: 5 * time.Second}
	modes := []struct {
		name string
		run  func(*System) error
		tag  func(obs.Event) (int, bool) // nil: untagged
		tags int                         // distinct stripe or path tags
	}{
		{name: "Transfer", run: func(s *System) error {
			_, err := s.Transfer("src", "dst", size)
			return err
		}},
		{name: "TransferReliable", run: func(s *System) error {
			_, err := s.TransferReliable("src", "dst", size, pol)
			return err
		}},
		{name: "TransferStriped", tag: obs.Event.StripeIndex, tags: 2, run: func(s *System) error {
			_, err := s.TransferStriped("src", "dst", size, 2, pol)
			return err
		}},
		{name: "TransferMultipath", tag: obs.Event.PathIndex, tags: 2, run: func(s *System) error {
			_, err := s.TransferMultipath("src", "dst", size, 2, pol)
			return err
		}},
		{name: "TransferCached", run: func(s *System) error {
			_, err := s.TransferCached("src", "dst", wire.SessionID{7}, size, pol)
			return err
		}},
		{name: "TransferHopByHop", run: func(s *System) error {
			_, err := s.TransferHopByHop("src", "dst", size)
			return err
		}},
	}
	lifecycle := []string{obs.KindConnect, obs.KindFirstByte, obs.KindLastByte}
	for _, m := range modes {
		t.Run("hop0/"+m.name, func(t *testing.T) {
			sys, mem := cachedSystem(t, chainTopology(t), nil, false)
			if err := m.run(sys); err != nil {
				t.Fatal(err)
			}
			// Lifecycle events per session and tag; a multipath route
			// runs one session per range it claims, each a full cycle.
			seqs := map[string][]string{}
			tags := map[int]bool{}
			for _, e := range mem.Events() {
				if e.Hop != 0 || (e.Kind != obs.KindConnect && e.Kind != obs.KindFirstByte && e.Kind != obs.KindLastByte) {
					continue
				}
				key := e.Session
				if m.tag != nil {
					k, ok := m.tag(e)
					if !ok {
						t.Fatalf("%s event %+v carries no tag", e.Kind, e)
					}
					tags[k] = true
					key = fmt.Sprintf("%s/%d", e.Session, k)
				}
				seqs[key] = append(seqs[key], e.Kind)
			}
			if len(seqs) == 0 || len(tags) != m.tags {
				t.Fatalf("hop-0 sequences %v over tags %v, want %d tags", seqs, tags, m.tags)
			}
			for key, seq := range seqs {
				if len(seq)%len(lifecycle) != 0 {
					t.Fatalf("%s: hop-0 events = %v, want repeats of %v", key, seq, lifecycle)
				}
				for i, kind := range seq {
					if kind != lifecycle[i%len(lifecycle)] {
						t.Fatalf("%s: hop-0 events = %v, want repeats of %v", key, seq, lifecycle)
					}
				}
			}
		})
	}
}
