package core

import (
	"context"
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
	if leaked := sys.sink.Live(); leaked != 0 {
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

	o := Object{ID: id, Dst: sys.endpoints[di], Size: size, Opts: integrityOptions(want)}
	err = sys.engine(si, di).Once(sys.ctx, o, Route{}, 10*time.Second)
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

// sinkSession sends [from, to) of id's pattern straight from src to
// dst as one checksummed session carrying the digest want, and returns
// the sink's report of it.
func sinkSession(t *testing.T, sys *System, id wire.SessionID, tid wire.TraceID, from, to int64, want wire.ContentDigest, extra ...wire.Option) depot.Report {
	t.Helper()
	si, _ := sys.Topo.HostIndex("src")
	di, _ := sys.Topo.HostIndex("dst")
	r := sys.engine(si, di).start(sys.ctx, Object{ID: id, Trace: tid, Dst: sys.endpoints[di], Size: want.Size,
		Opts: append(integrityOptions(want), extra...)})
	l := r.leg(from, to)
	sess, err := r.open(l, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.send(sess, l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(sys.ctx, 10*time.Second)
	defer cancel()
	rep, err := sys.sink.Await(ctx, depot.Query{ID: id, Trace: tid, Offset: from})
	if err != nil {
		t.Fatalf("no sink report for [%d, %d): %v", from, to, err)
	}
	return rep
}

// checkReport holds a sink report to its verdict: whether the session
// completed the digest, and whether the verdict is a mismatch.
func checkReport(t *testing.T, r depot.Report, checked, mismatch bool) {
	t.Helper()
	if r.Checked != checked || errors.Is(r.Err, wire.ErrDigest) != mismatch || (r.Err != nil && !mismatch) {
		t.Fatalf("report [%d, +%d) checked=%v err=%v, want checked=%v mismatch=%v",
			r.Offset, r.Bytes, r.Checked, r.Err, checked, mismatch)
	}
}

// TestDigestTrackerStitchesAttempts: the system's sink stitches the
// attempts of one transfer, sent through the emulated network under one
// session and trace id, into one digest, with the overlap and gap
// semantics the resume path relies on.
func TestDigestTrackerStitchesAttempts(t *testing.T) {
	sys, _ := integritySystem(t, nil)
	const size = 2600
	fresh := func(t *testing.T) (wire.SessionID, wire.TraceID, wire.ContentDigest) {
		id, err := wire.NewSessionID()
		if err != nil {
			t.Fatal(err)
		}
		return id, mintTrace(), depot.PatternDigest(id, size)
	}

	t.Run("overlap skipped", func(t *testing.T) {
		// Attempt 1 delivers a prefix; the continuation re-sends a
		// range straddling the boundary.
		id, tid, want := fresh(t)
		checkReport(t, sinkSession(t, sys, id, tid, 0, 1000, want), false, false)
		checkReport(t, sinkSession(t, sys, id, tid, 600, size, want), true, false)
	})
	t.Run("mismatch detected", func(t *testing.T) {
		id, tid, want := fresh(t)
		want.Sum[7] ^= 1
		checkReport(t, sinkSession(t, sys, id, tid, 0, size, want), true, true)
	})
	t.Run("partial awaits continuation", func(t *testing.T) {
		id, tid, want := fresh(t)
		checkReport(t, sinkSession(t, sys, id, tid, 0, 100, want), false, false)
		// The record must survive for the continuation.
		if n := sys.sink.Live(); n != 1 {
			t.Fatalf("%d live records after a partial delivery, want 1", n)
		}
		checkReport(t, sinkSession(t, sys, id, tid, 100, size, want), true, false)
	})
	t.Run("gap degrades to unchecked", func(t *testing.T) {
		id, tid, want := fresh(t)
		checkReport(t, sinkSession(t, sys, id, tid, 0, 100, want), false, false)
		checkReport(t, sinkSession(t, sys, id, tid, 200, size, want), false, false) // hole at [100, 200)
		sys.sink.Retire(id, tid)
	})
	if n := sys.sink.Live(); n != 0 {
		t.Fatalf("%d live records after every transfer finished or retired", n)
	}
}
