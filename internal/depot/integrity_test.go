package depot

import (
	"bytes"
	"crypto/sha256"
	"io"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/wire"
)

// TestChecksummedForwardCleanPassThrough sends a framed payload through
// a relay to a sink that strips the framing: the bytes must arrive
// intact and no hop may count a checksum error.
func TestChecksummedForwardCleanPassThrough(t *testing.T) {
	h := newHarness(t)
	h.addDepot(epB, Config{}) // relay: verifies and re-stamps
	h.addDepot(epC, Config{Local: func(s *lsl.Session) error {
		data, err := io.ReadAll(wire.NewFrameReader(s))
		h.mu.Lock()
		h.delivered[s.ID()] = data
		h.mu.Unlock()
		h.done <- s.ID()
		return err
	}})

	sess, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epC, []wire.Endpoint{epB},
		wire.ChunkChecksumOption())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("checksummed chunk "), 8192)
	go func() {
		fw := wire.NewFrameWriter(sess)
		fw.Write(payload)
		sess.Close()
	}()
	if got := h.waitDelivery(sess.ID()); !bytes.Equal(got, payload) {
		t.Fatalf("delivered %d bytes, want %d", len(got), len(payload))
	}
	if st := h.servers[epB].Stats(); st.ChecksumErrors != 0 {
		t.Fatalf("clean transfer counted %d checksum errors", st.ChecksumErrors)
	}
}

// TestChecksummedForwardDetectsCorruptingHop arms the fault injector on
// the relay's inbound path: the relay's per-chunk verifier — the first
// hop after the corruption — must catch it, count it, emit the corrupt
// refusal, and stop forwarding damaged bytes downstream.
func TestChecksummedForwardDetectsCorruptingHop(t *testing.T) {
	h := newHarness(t)
	f := NewFaultInjector()
	f.CorruptAfter(64 << 10)
	h.addDepot(epB, Config{Faults: f}) // corrupting hop
	h.addDepot(epC, Config{})          // sink depot

	sess, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epC, []wire.Endpoint{epB},
		wire.ChunkChecksumOption())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 512<<10)
	go func() {
		fw := wire.NewFrameWriter(sess)
		fw.Write(payload)
		sess.Close()
	}()

	deadline := time.Now().Add(10 * time.Second)
	for h.servers[epB].Stats().ChecksumErrors < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("corruption never detected: %+v", h.servers[epB].Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if f.Injected() != 1 {
		t.Fatalf("Injected = %d, want 1", f.Injected())
	}
	// The sink depot saw only verified frames; it must not also flag the
	// corruption — localizing blame to the corrupting hop.
	if st := h.servers[epC].Stats(); st.ChecksumErrors != 0 {
		t.Fatalf("sink depot counted %d checksum errors", st.ChecksumErrors)
	}
}

// TestUncheckedSessionRidesThroughCorruption documents the baseline the
// tentpole fixes: without the checksum option the same fault delivers
// wrong bytes and nobody notices.
func TestUncheckedSessionRidesThroughCorruption(t *testing.T) {
	h := newHarness(t)
	f := NewFaultInjector()
	f.CorruptAfter(16 << 10)
	h.addDepot(epB, Config{Faults: f})
	h.addDepot(epC, Config{})

	sess, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epC, []wire.Endpoint{epB})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{3}, 64<<10)
	go func() {
		sess.Write(payload)
		sess.Close()
	}()
	got := h.waitDelivery(sess.ID())
	if len(got) != len(payload) {
		t.Fatalf("delivered %d bytes, want %d", len(got), len(payload))
	}
	if bytes.Equal(got, payload) {
		t.Fatal("fault injector corrupted nothing")
	}
	if st := h.servers[epB].Stats(); st.ChecksumErrors != 0 {
		t.Fatalf("unchecked session counted %d checksum errors", st.ChecksumErrors)
	}
}

// TestStoreUnframesChecksummedPayload stores through a checksummed
// session and fetches raw bytes back: the storing depot is the
// terminus, so the store must hold the payload unframed.
func TestStoreUnframesChecksummedPayload(t *testing.T) {
	h := newHarness(t)
	h.addDepot(epB, Config{})
	payload := bytes.Repeat([]byte("stage me "), 4096)
	sess, err := lsl.Start(h.dialerFrom("10.0.0.1"), lsl.Spec{Type: wire.TypeStore, Src: epA, Dst: epB,
		Options: []wire.Option{wire.ChunkChecksumOption()}})
	if err != nil {
		t.Fatal(err)
	}
	fw := wire.NewFrameWriter(sess)
	if _, err := fw.Write(payload); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	waitFor(t, func() bool { return h.servers[epB].Stats().Stored == 1 })

	fetched, err := lsl.Fetch(h.dialerFrom("10.0.0.4"), epD, epB, sess.ID())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(fetched)
	fetched.Close()
	if !bytes.Equal(got, payload) {
		t.Fatalf("fetched %d bytes, want %d raw", len(got), len(payload))
	}
}

// TestPatternDigestMatchesStream checks the digest helper against a
// straight hash of the written pattern.
func TestPatternDigestMatchesStream(t *testing.T) {
	id := wire.SessionID{1, 2, 3}
	const size = 100_000
	d := PatternDigest(id, size)
	if d.Size != size {
		t.Fatalf("Size = %d", d.Size)
	}
	var buf bytes.Buffer
	if _, err := WritePattern(&buf, make([]byte, 32<<10), id, 0, size); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(buf.Bytes()); sum != d.Sum {
		t.Fatal("PatternDigest disagrees with a straight hash of the pattern stream")
	}
}
