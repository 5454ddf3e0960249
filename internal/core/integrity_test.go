package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/retry"
	"github.com/netlogistics/lsl/internal/wire"
)

// integritySystem is chainSystem with end-to-end integrity enabled.
func integritySystem(t *testing.T, reg *obs.Registry) (*System, *obs.MemorySink) {
	t.Helper()
	mem := &obs.MemorySink{}
	sys, err := NewSystem(chainTopology(t), Config{
		TimeScale: 0.0005,
		Seed:      1,
		Metrics:   reg,
		Trace:     mem,
		Integrity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys, mem
}

// TestIntegrityCleanTransferVerifies: with integrity on, an unmolested
// transfer completes, counts no mismatches, and leaves no digest state
// behind at the sink.
func TestIntegrityCleanTransferVerifies(t *testing.T) {
	reg := obs.NewRegistry()
	sys, mem := integritySystem(t, reg)

	const size = 128 << 10
	res, err := sys.Transfer("src", "dst", size)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != size {
		t.Fatalf("bytes = %d, want %d", res.Bytes, size)
	}
	if v := reg.Counter(MetricDigestMismatches).Value(); v != 0 {
		t.Fatalf("%s = %d on a clean transfer", MetricDigestMismatches, v)
	}
	if v := reg.Counter(depot.MetricChecksumErrors).Value(); v != 0 {
		t.Fatalf("%s = %d on a clean transfer", depot.MetricChecksumErrors, v)
	}
	for _, e := range mem.Events() {
		if e.Kind == obs.KindCorrupt {
			t.Fatalf("clean transfer emitted a corrupt event: %+v", e)
		}
	}
	sys.digests.mu.Lock()
	leaked := len(sys.digests.m)
	sys.digests.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d digest states leaked after completion", leaked)
	}
}

// TestIntegrityRecoversFromRelayCorruption is the tentpole acceptance
// scenario: a relay corrupts a byte mid-stream. The corrupting hop's
// chunk verifier must catch it (not the sink's pattern check), the
// failure must classify as transient, and the reliable transfer must
// re-send the damaged range via the resume path and finish with the
// correct bytes — the exact fault that is FATAL without integrity
// (TestReliableCorruptionIsFatal).
func TestIntegrityRecoversFromRelayCorruption(t *testing.T) {
	reg := obs.NewRegistry()
	sys, mem := integritySystem(t, reg)

	f, err := sys.Fault("relay-a")
	if err != nil {
		t.Fatal(err)
	}
	f.CorruptAfter(16 << 10)

	const size = 64 << 10
	res, err := sys.TransferReliable("src", "dst", size, RecoveryPolicy{
		Retry: fastPolicy(4), AttemptTimeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatalf("corruption was not recovered: %v", err)
	}
	if res.Bytes != size {
		t.Fatalf("bytes = %d, want %d", res.Bytes, size)
	}
	if f.Injected() != 1 {
		t.Fatalf("Injected = %d, want 1", f.Injected())
	}
	if v := reg.Counter(depot.MetricChecksumErrors).Value(); v < 1 {
		t.Fatalf("%s = %d, want >= 1", depot.MetricChecksumErrors, v)
	}
	if v := reg.Counter(MetricRetryAttempts).Value(); v < 1 {
		t.Fatalf("%s = %d, want >= 1 — corruption must burn a retry, not abort", MetricRetryAttempts, v)
	}
	if v := reg.Counter(MetricRecoveryFatal).Value(); v != 0 {
		t.Fatalf("%s = %d, want 0 — detected corruption is transient", MetricRecoveryFatal, v)
	}

	// The corrupt event must blame the corrupting relay, and the retry
	// must appear in the same trace so the collector can assemble the
	// whole detect-and-recover story.
	relayA, _ := sys.Topo.HostIndex("relay-a")
	relayEP := sys.Endpoint(relayA).String()
	var sawCorrupt, sawRetry bool
	for _, e := range mem.Events() {
		switch e.Kind {
		case obs.KindCorrupt:
			if e.Node != relayEP {
				t.Fatalf("corrupt event blames %s, want the corrupting relay %s", e.Node, relayEP)
			}
			sawCorrupt = true
		case obs.KindRetry:
			sawRetry = true
		}
	}
	if !sawCorrupt || !sawRetry {
		t.Fatalf("trace incomplete: corrupt=%v retry=%v", sawCorrupt, sawRetry)
	}
}

// TestIntegrityStripedCorruptionRetransmitsOneStripe corrupts a single
// byte of a striped transfer: exactly one stripe's chain sees the
// damage and retransmits its range while the siblings stream on, and
// the transfer still completes in full.
func TestIntegrityStripedCorruptionRetransmitsOneStripe(t *testing.T) {
	reg := obs.NewRegistry()
	sys, mem := integritySystem(t, reg)

	f, err := sys.Fault("relay-a")
	if err != nil {
		t.Fatal(err)
	}
	f.CorruptAfter(32 << 10)

	const size, stripes = 256 << 10, 4
	res, err := sys.TransferStriped("src", "dst", size, stripes, RecoveryPolicy{
		Retry: fastPolicy(6), AttemptTimeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatalf("striped transfer did not recover: %v", err)
	}
	if res.Bytes != size {
		t.Fatalf("bytes = %d, want %d", res.Bytes, size)
	}
	if f.Injected() != 1 {
		t.Fatalf("Injected = %d, want 1", f.Injected())
	}
	if v := reg.Counter(depot.MetricChecksumErrors).Value(); v < 1 {
		t.Fatalf("%s = %d, want >= 1", depot.MetricChecksumErrors, v)
	}
	if v := reg.Counter(MetricStripeRetries).Value(); v < 1 {
		t.Fatalf("%s = %d, want >= 1", MetricStripeRetries, v)
	}
	// The single injected fault hits one stripe's chain: the retries it
	// forces must be confined to a single stripe index.
	retried := map[int]bool{}
	for _, e := range mem.Events() {
		if e.Kind == obs.KindRetry {
			if k, ok := e.StripeIndex(); ok {
				retried[k] = true
			}
		}
	}
	if len(retried) != 1 {
		t.Fatalf("retries touched stripes %v, want exactly one stripe", retried)
	}
}

// TestIntegrityDigestMismatchSurfacesAtSink drives the last line of
// defense directly: a session whose advertised digest cannot match (the
// chunks themselves are clean) must fail the delivery with
// wire.ErrDigest — a transient classification — count the mismatch, and
// emit a corrupt trace event.
func TestIntegrityDigestMismatchSurfacesAtSink(t *testing.T) {
	reg := obs.NewRegistry()
	sys, mem := integritySystem(t, reg)

	si, _ := sys.Topo.HostIndex("src")
	di, _ := sys.Topo.HostIndex("dst")
	const size = 32 << 10
	id, err := wire.NewSessionID()
	if err != nil {
		t.Fatal(err)
	}
	want := depot.PatternDigest(id, size)
	want.Sum[0] ^= 0xff // a digest no delivery can satisfy

	l := leg{path: []int{si, di}, id: id, to: size,
		opts: []wire.Option{wire.ChunkChecksumOption(), wire.ContentDigestOption(want)}}
	_, _, err = sys.attempt(l, 10*time.Second)
	if !errors.Is(err, wire.ErrDigest) {
		t.Fatalf("attempt err = %v, want wire.ErrDigest", err)
	}
	if retry.Classify(err) != retry.Transient {
		t.Fatalf("digest mismatch classified %v, want Transient", retry.Classify(err))
	}
	if v := reg.Counter(MetricDigestMismatches).Value(); v != 1 {
		t.Fatalf("%s = %d, want 1", MetricDigestMismatches, v)
	}
	var sawCorrupt bool
	for _, e := range mem.Events() {
		if e.Kind == obs.KindCorrupt {
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Fatal("digest mismatch emitted no corrupt event")
	}
}

// TestDigestTrackerStitchesAttempts exercises the overlap and gap
// semantics the resume path relies on.
func TestDigestTrackerStitchesAttempts(t *testing.T) {
	payload := bytes.Repeat([]byte("stitch me across attempts "), 100)
	want := wire.ContentDigest{Size: int64(len(payload)), Sum: sha256.Sum256(payload)}
	id := wire.SessionID{1}

	t.Run("overlap skipped", func(t *testing.T) {
		var tr digestTracker
		// Attempt 1 delivers a prefix; the continuation re-sends a
		// chunk straddling the boundary.
		tr.absorb(id, 0, payload[:1000])
		tr.absorb(id, 600, payload[600:])
		done, err := tr.finalize(id, want)
		if !done || err != nil {
			t.Fatalf("done=%v err=%v, want a clean match", done, err)
		}
	})
	t.Run("mismatch detected", func(t *testing.T) {
		var tr digestTracker
		mangled := append([]byte(nil), payload...)
		mangled[42] ^= 1
		tr.absorb(id, 0, mangled)
		done, err := tr.finalize(id, want)
		if !done || !errors.Is(err, wire.ErrDigest) {
			t.Fatalf("done=%v err=%v, want wire.ErrDigest", done, err)
		}
	})
	t.Run("partial awaits continuation", func(t *testing.T) {
		var tr digestTracker
		tr.absorb(id, 0, payload[:100])
		if done, err := tr.finalize(id, want); done || err != nil {
			t.Fatalf("done=%v err=%v on a partial delivery", done, err)
		}
		// The state must survive for the continuation.
		tr.absorb(id, 100, payload[100:])
		if done, err := tr.finalize(id, want); !done || err != nil {
			t.Fatalf("done=%v err=%v after the continuation", done, err)
		}
	})
	t.Run("gap degrades to unchecked", func(t *testing.T) {
		var tr digestTracker
		tr.absorb(id, 0, payload[:100])
		tr.absorb(id, 200, payload[200:]) // hole at [100, 200)
		if done, err := tr.finalize(id, want); done || err != nil {
			t.Fatalf("done=%v err=%v, want a poisoned state to stay silent", done, err)
		}
	})
}
