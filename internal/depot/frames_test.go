package depot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/bufpool"
	"github.com/netlogistics/lsl/internal/cache"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// buffersReturn waits until the pool's gauge is back to where it stood
// at base: every chunk the code under test drew has been put back.
func buffersReturn(t *testing.T, base int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for bufpool.Outstanding() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d pooled buffers still out", bufpool.Outstanding()-base)
		}
		time.Sleep(time.Millisecond)
	}
}

// frameLog is a downstream that records the length of every Write and
// keeps the bytes, holding each Write until released.
type frameLog struct {
	release chan struct{} // closed to let writes through
	mu      sync.Mutex
	writes  []int
	got     bytes.Buffer
}

func (w *frameLog) Write(p []byte) (int, error) {
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes = append(w.writes, len(p))
	return w.got.Write(p)
}

// TestPumpQueueFramedSessionBound: on a checksummed session the queue
// is sized by the frame buffers it holds, so PipelineBytes bounds the
// memory a stalled session pins whether the sender frames at the
// cache's 64 KiB or — as every core sender does — at 32 KiB, where a
// chunk is half empty; and whatever the frame size, a frame leaves in
// exactly one Write.
func TestPumpQueueFramedSessionBound(t *testing.T) {
	const pipeline = 1 << 20
	for _, frame := range []int{32 << 10, wire.MaxFramePayload, 5000} {
		reg := obs.NewRegistry()
		srv := &Server{cfg: Config{PipelineBytes: pipeline}, met: newMetrics(reg)}
		stream := upstreamFrames(randomPayload(int64(frame), 4<<20), frame)
		base := bufpool.Outstanding()
		down := &frameLog{release: make(chan struct{})}
		pumped := make(chan error, 1)
		go func() {
			_, err := srv.pump(down, checkedSource(bytes.NewReader(stream), true, nil), nil)
			pumped <- err
		}()

		// The writer is stuck in its first Write: the reader runs ahead
		// until the queue is full, and no further. Beside the queue's
		// chunks there is the one the writer holds and the one the reader
		// is blocked pushing.
		depth := int64(pipeline / bufpool.FrameSize)
		waitFor(t, func() bool { return bufpool.Outstanding()-base >= depth+2 })
		time.Sleep(20 * time.Millisecond)
		held := bufpool.Outstanding() - base
		if held != depth+2 || (held-2)*bufpool.FrameSize > pipeline {
			t.Fatalf("%d-byte frames: stalled pump holds %d buffers, want %d queued (within PipelineBytes) + 2 in hand", frame, held, depth)
		}
		occupancy := reg.Gauge(MetricPipelineOccupancy).Value()
		if want := (depth + 2) * int64(wire.FrameHeaderLen+frame); occupancy != want || occupancy-2*bufpool.FrameSize > pipeline {
			t.Fatalf("%d-byte frames: occupancy gauge %d, want %d", frame, occupancy, want)
		}

		close(down.release)
		if err := <-pumped; err != nil {
			t.Fatal(err)
		}
		buffersReturn(t, base)
		if !bytes.Equal(down.got.Bytes(), stream) {
			t.Fatalf("%d-byte frames: forwarded stream differs", frame)
		}
		at := 0
		for i, n := range down.writes {
			if want := wire.FrameHeaderLen + int(binary.BigEndian.Uint32(stream[at:])); n != want {
				t.Fatalf("%d-byte frames: write %d carried %d bytes, the frame there is %d", frame, i, n, want)
			}
			at += n
		}
	}
}

// TestPumpReturnsItsBuffers: however a pump ends — cleanly, on a torn
// or corrupt upstream frame, on a dead downstream with a queue behind
// it — every pooled buffer it drew goes back.
func TestPumpReturnsItsBuffers(t *testing.T) {
	framed := upstreamFrames(randomPayload(11, 2<<20), wire.MaxFramePayload)
	corrupt := append([]byte(nil), framed...)
	corrupt[len(corrupt)/2] ^= 0xFF
	for _, tc := range []struct {
		name   string
		stream []byte
		verify bool
		dst    io.Writer
		want   error // nil: a clean end
	}{
		{name: "plain, clean", stream: framed, dst: io.Discard},
		{name: "framed, clean", stream: framed, verify: true, dst: io.Discard},
		{name: "framed, upstream killed mid-frame", stream: framed[:len(framed)-1000], verify: true, dst: io.Discard, want: io.ErrUnexpectedEOF},
		{name: "framed, corrupt frame", stream: corrupt, verify: true, dst: io.Discard, want: wire.ErrChecksum},
		{name: "framed, downstream dead", stream: framed, verify: true, dst: failWriter{}, want: io.ErrClosedPipe},
		{name: "plain, downstream dead", stream: framed, dst: failWriter{}, want: io.ErrClosedPipe},
	} {
		base := bufpool.Outstanding()
		srv := &Server{cfg: Config{PipelineBytes: 1 << 20}}
		_, err := srv.pump(tc.dst, checkedSource(bytes.NewReader(tc.stream), tc.verify, nil), nil)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: pump ended with %v, want %v", tc.name, err, tc.want)
		}
		buffersReturn(t, base)
	}
}

// killedMidFrame opens a checksummed, digest-stamped session for
// payload through route, sends whole frames of size bytes and then only
// part of the next before the transport is closed under it.
func killedMidFrame(t *testing.T, h *harness, dst wire.Endpoint, route []wire.Endpoint, payload []byte, size, whole int) wire.SessionID {
	t.Helper()
	sess, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, dst, route,
		wire.ChunkChecksumOption(), wire.ContentDigestOption(digestOf(payload)))
	if err != nil {
		t.Fatal(err)
	}
	stream := upstreamFrames(payload, size)
	cut := whole*(wire.FrameHeaderLen+size) + wire.FrameHeaderLen + size/2
	if _, err := sess.Write(stream[:cut]); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	return sess.ID()
}

// TestTappedSessionKilledMidFrameKeepsTheVerifiedPrefix: a sender that
// dies inside a frame leaves a tapped depot holding exactly the frames
// that arrived whole and verified — nothing of the torn one — with the
// tear reported as a transport event, not corruption, and no pooled
// buffer left behind.
func TestTappedSessionKilledMidFrameKeepsTheVerifiedPrefix(t *testing.T) {
	for _, size := range []int{32 << 10, wire.MaxFramePayload} {
		h := newHarness(t)
		c := testCache(t, 4<<20)
		base := bufpool.Outstanding()
		relay := h.addDepot(epB, Config{Cache: c})
		h.addDepot(epC, Config{Local: h.unframingLocal()})
		payload := randomPayload(int64(size), 10*size)
		d := digestOf(payload)
		const whole = 3
		id := killedMidFrame(t, h, epC, []wire.Endpoint{epB}, payload, size, whole)

		waitFor(t, func() bool { return relay.Stats().Errors == 1 })
		want := wire.ByteRange{Off: 0, Len: int64(whole * size)}
		if rs := c.Ranges(d); len(rs) != 1 || rs[0] != want {
			t.Fatalf("%d-byte frames: cache holds %v, want exactly the whole frames %v", size, rs, want)
		}
		if got := readCached(t, c, d, want); !bytes.Equal(got, payload[:want.Len]) {
			t.Fatalf("%d-byte frames: cached prefix differs", size)
		}
		if st := relay.Stats(); st.ChecksumErrors != 0 || st.BytesForwarded != int64(whole*(wire.FrameHeaderLen+size)) {
			t.Fatalf("%d-byte frames: a torn frame left %+v", size, st)
		}
		if got := h.waitDelivery(id); !bytes.Equal(got, payload[:want.Len]) {
			t.Fatalf("%d-byte frames: sink received %d bytes, want the %d forwarded whole", size, len(got), want.Len)
		}
		buffersReturn(t, base)
	}
}

// TestTappedSessionDownstreamDiesCommitsWhatWasProven: when the next
// hop hangs up mid-session the pump returns while its reader is still
// taking frames from upstream; the commit that follows must be ordered
// with that reader (this test is for the race detector) and leaves a
// true prefix of the object.
func TestTappedSessionDownstreamDiesCommitsWhatWasProven(t *testing.T) {
	h := newHarness(t)
	c := testCache(t, 8<<20)
	relay := h.addDepot(epB, Config{Cache: c})
	h.addDepot(epC, Config{Local: func(s *lsl.Session) error {
		io.CopyN(io.Discard, s, 100<<10)
		return nil // Handle closes the session under the relay's writes
	}})
	payload := randomPayload(13, 4<<20)
	d := digestOf(payload)
	sess, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epC, []wire.Endpoint{epB},
		wire.ChunkChecksumOption(), wire.ContentDigestOption(d))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	go sess.Write(upstreamFrames(payload, 32<<10))

	waitFor(t, func() bool { return relay.Stats().Errors == 1 })
	rs := c.Ranges(d)
	if len(rs) != 1 || rs[0].Off != 0 || rs[0].Len%(32<<10) != 0 {
		t.Fatalf("cache holds %v, want one run of whole frames from 0", rs)
	}
	if got := readCached(t, c, d, rs[0]); !bytes.Equal(got, payload[:rs[0].Len]) {
		t.Fatal("cached prefix differs")
	}
}

// TestCacheServeDownstreamDies: the same hang-up under a serve from the
// cache, spilled or in memory. The pump returns on the failed write with
// its reader still taking blocks from the cache reader the handler now
// closes: the close must wait for the block being read and end the
// stream behind it — no crash, no race, no serving on to nobody — and
// every buffer comes back.
func TestCacheServeDownstreamDies(t *testing.T) {
	payload := randomPayload(14, 16<<20)
	d := digestOf(payload)
	for _, cfg := range []cache.Config{
		{MemoryBytes: 32 << 20},
		{MemoryBytes: 1 << 20, DiskBytes: 32 << 20, Dir: t.TempDir()},
	} {
		c, err := cache.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(d, 0, payload); err != nil {
			t.Fatal(err)
		}
		h := newHarness(t)
		relay := h.addDepot(epB, Config{Cache: c, PipelineBytes: 256 << 10})
		h.addDepot(epC, Config{Local: func(s *lsl.Session) error {
			io.CopyN(io.Discard, s, 100<<10)
			return nil // Handle closes the session under the relay's writes
		}})
		base := bufpool.Outstanding()
		id, err := wire.NewSessionID()
		if err != nil {
			t.Fatal(err)
		}
		sess, err := lsl.Start(h.dialerFrom("10.0.0.1"), lsl.Spec{Type: wire.TypeCacheServe, ID: id, Src: epA, Dst: epC,
			Route: []wire.Endpoint{epB}, Options: []wire.Option{wire.CacheServeOption(d, wire.ByteRange{Off: 0, Len: d.Size}), wire.ChunkChecksumOption()}})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return relay.Stats().Errors == 1 })
		sess.Close()
		buffersReturn(t, base)
		if served := c.Stats().BytesServed; served >= d.Size {
			t.Fatalf("dir %q: the cache served all %d bytes to a session that died in its first MB", cfg.Dir, served)
		}
	}
}

// TestCorruptFrameHeaderIsCountedAndRefused: a byte flipped in a frame
// header — not the payload a CRC covers, the 8 bytes in front of it —
// is corruption all the same: the depot that reads it counts a checksum
// error, answers the initiator with the typed refusal, forwards nothing
// of that frame, and its tap keeps the frames proven before it.
func TestCorruptFrameHeaderIsCountedAndRefused(t *testing.T) {
	const size = 32 << 10
	h := newHarness(t)
	c := testCache(t, 4<<20)
	reg := obs.NewRegistry()
	f := NewFaultInjector()
	// The injector flips the first byte of the read that crosses the
	// threshold: the header read of the second frame.
	f.CorruptAfter(wire.FrameHeaderLen + size)
	relay := h.addDepot(epB, Config{Faults: f, Cache: c, Metrics: reg})
	h.addDepot(epC, Config{Local: h.unframingLocal()})

	payload := randomPayload(12, 8*size)
	d := digestOf(payload)
	sess, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epC, []wire.Endpoint{epB},
		wire.ChunkChecksumOption(), wire.ContentDigestOption(d))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	go sess.Write(upstreamFrames(payload, size)) // fails partway, once the depot hangs up

	resp, err := wire.ReadHeader(sess)
	if err != nil || resp.Type != wire.TypeRefuse {
		t.Fatalf("initiator read %+v, %v; want the typed refusal", resp, err)
	}
	if f.Injected() != 1 {
		t.Fatalf("Injected = %d, want 1", f.Injected())
	}
	waitFor(t, func() bool { return relay.Stats().Errors == 1 })
	if got := reg.Counter(MetricChecksumErrors).Value(); got != 1 || relay.Stats().ChecksumErrors != 1 {
		t.Fatalf("%s = %d, Stats().ChecksumErrors = %d, want 1 and 1", MetricChecksumErrors, got, relay.Stats().ChecksumErrors)
	}
	if st := relay.Stats(); st.BytesForwarded != wire.FrameHeaderLen+size {
		t.Fatalf("forwarded %d bytes, want the one frame that verified", st.BytesForwarded)
	}
	want := wire.ByteRange{Off: 0, Len: size}
	if rs := c.Ranges(d); len(rs) != 1 || rs[0] != want {
		t.Fatalf("cache holds %v, want %v", rs, want)
	}
}
