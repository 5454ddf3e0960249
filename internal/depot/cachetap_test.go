package depot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"github.com/netlogistics/lsl/internal/bufpool"
	"github.com/netlogistics/lsl/internal/cache"
	"github.com/netlogistics/lsl/internal/wire"
)

// tapFor returns the population tap a depot holding c arms for a
// session carrying d from offset off, framed or not.
func tapFor(c *cache.Cache, d wire.ContentDigest, off int64, framed bool) *cacheTap {
	h := &wire.Header{Version: wire.Version1, Type: wire.TypeData}
	h.AddOption(wire.ContentDigestOption(d))
	if framed {
		h.AddOption(wire.ChunkChecksumOption())
	}
	if off > 0 {
		h.AddOption(wire.ResumeOffsetOption(uint64(off)))
	}
	return (&Server{cfg: Config{Cache: c}}).cacheTap(h)
}

// pieceReader yields a stream at most piece bytes per Read: an upstream
// transport that cuts it anywhere, through headers and through payload.
type pieceReader struct {
	stream []byte
	piece  int
}

func (r *pieceReader) Read(p []byte) (int, error) {
	if len(r.stream) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.piece)], r.stream)
	r.stream = r.stream[n:]
	return n, nil
}

// feed moves stream past the tap the way a pump's read side does, the
// transport delivering piece bytes at a time, and returns the error
// that ended the session (nil on a clean end).
func feed(t *cacheTap, stream []byte, piece int) error {
	src := checkedSource(&pieceReader{stream, piece}, t.framed, t)
	bp := src.get()
	defer bufpool.Put(bp)
	for {
		if _, err := src.next(*bp); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// splitFrames cuts a well-formed framed stream into its frames.
func splitFrames(stream []byte) [][]byte {
	var out [][]byte
	for len(stream) > 0 {
		n := wire.FrameHeaderLen + int(binary.BigEndian.Uint32(stream))
		out = append(out, stream[:n])
		stream = stream[n:]
	}
	return out
}

// upstreamFrames frames payload the way a sender that writes `write`
// bytes at a time does: frames of that size, unrelated to the cache's
// own MaxFramePayload frames.
func upstreamFrames(payload []byte, write int) []byte {
	var out bytes.Buffer
	fw := wire.NewFrameWriter(&out)
	for len(payload) > 0 {
		n := min(write, len(payload))
		fw.Write(payload[:n])
		payload = payload[n:]
	}
	return out.Bytes()
}

func randomPayload(seed int64, n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

func readCached(t *testing.T, c *cache.Cache, d wire.ContentDigest, r wire.ByteRange) []byte {
	t.Helper()
	rc, err := c.Open(d, r)
	if err != nil {
		t.Fatalf("Open(%+v): %v", r, err)
	}
	defer rc.Close()
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("read %+v: %v", r, err)
	}
	return got
}

// TestCacheTapUnframesAcrossWriteBoundaries: however the transport's
// reads cut the framed stream — through headers, through payload — the
// tap is handed the same frames and stores the same bytes, and the
// object completes without a re-read.
func TestCacheTapUnframesAcrossWriteBoundaries(t *testing.T) {
	payload := randomPayload(1, 300_000)
	d := digestOf(payload)
	stream := upstreamFrames(payload, 5000)
	var occupancy int64
	for _, piece := range []int{1, 7, 32 << 10} {
		c := testCache(t, 1<<20)
		tap := tapFor(c, d, 0, true)
		feed(tap, stream, piece)
		tap.commit(true)
		if ks := c.Keys(); len(ks) != 1 || ks[0] != d {
			t.Fatalf("piece %d: Keys() = %v right after commit", piece, ks)
		}
		tap.settle()
		if got := readCached(t, c, d, wire.ByteRange{Off: 0, Len: d.Size}); !bytes.Equal(got, payload) {
			t.Fatalf("piece %d: cached bytes differ", piece)
		}
		st := c.Stats()
		if want := d.Size + int64(cache.FrameOverhead(len(payload))); st.MemBytes != want {
			t.Fatalf("piece %d: MemBytes = %d, want %d (canonical framing)", piece, st.MemBytes, want)
		}
		if occupancy == 0 {
			occupancy = st.MemBytes
		} else if st.MemBytes != occupancy {
			t.Fatalf("piece %d: stored %d bytes, another piece size stored %d", piece, st.MemBytes, occupancy)
		}
	}
}

// TestCacheTapFailedFramedSessionKeepsWholeFrames: a checksummed session
// that dies inside a frame contributes its payload up to the last
// complete upstream frame and not a byte more, and that prefix serves
// back byte-exact.
func TestCacheTapFailedFramedSessionKeepsWholeFrames(t *testing.T) {
	payload := randomPayload(2, 200_000)
	d := digestOf(payload)
	stream := upstreamFrames(payload, 70_000) // frames of 64 KiB, 4464 B, 64 KiB, 4464 B, 60 000 B
	for _, cut := range []struct {
		stream int   // bytes of the framed stream that arrived
		want   int64 // payload bytes of the complete frames among them
	}{
		{3, 0},
		{wire.FrameHeaderLen + 100, 0},
		{wire.FrameHeaderLen + wire.MaxFramePayload, wire.MaxFramePayload},
		{wire.FrameHeaderLen + wire.MaxFramePayload + 5, wire.MaxFramePayload},
		{2*wire.FrameHeaderLen + 70_000 + 10_000, 70_000},
		{len(stream) - 1, 140_000},
	} {
		c := testCache(t, 1<<20)
		tap := tapFor(c, d, 0, true)
		feed(tap, stream[:cut.stream], 32<<10)
		tap.commit(false)
		tap.settle()
		if cut.want == 0 {
			if c.Ranges(d) != nil {
				t.Fatalf("cut %d: ranges %v from no complete frame", cut.stream, c.Ranges(d))
			}
			continue
		}
		want := wire.ByteRange{Off: 0, Len: cut.want}
		if rs := c.Ranges(d); len(rs) != 1 || rs[0] != want {
			t.Fatalf("cut %d: ranges = %v, want [%v]", cut.stream, rs, want)
		}
		if got := readCached(t, c, d, want); !bytes.Equal(got, payload[:cut.want]) {
			t.Fatalf("cut %d: cached prefix differs", cut.stream)
		}
		if len(c.Keys()) != 0 {
			t.Fatalf("cut %d: a partial object is advertised", cut.stream)
		}
	}
}

// TestCacheTapOverlongStreamStoresNothing: more payload than the digest
// promised means the stream is not the object, framed or not; a resumed
// session's promise is what is left from its offset.
func TestCacheTapOverlongStreamStoresNothing(t *testing.T) {
	payload := randomPayload(3, 100_000)
	d := digestOf(payload)
	for _, framed := range []bool{false, true} {
		for _, off := range []int64{0, 40_000} {
			c := testCache(t, 1<<20)
			tap := tapFor(c, d, off, framed)
			stream := append(append([]byte(nil), payload[off:]...), 'x')
			if framed {
				stream = upstreamFrames(stream, 9000)
			}
			feed(tap, stream, 32<<10)
			tap.commit(true)
			tap.settle()
			if st := c.Stats(); st.Objects != 0 || st.MemBytes != 0 {
				t.Fatalf("framed=%v off=%d: over-long stream left %+v", framed, off, st)
			}
		}
	}
}

// TestCacheTapMalformedFrameHeaderKeepsTheVerifiedPrefix: a length
// field the wire format forbids ends the session as corruption before
// the tap sees any of that frame; the frames proven before it stay.
func TestCacheTapMalformedFrameHeaderKeepsTheVerifiedPrefix(t *testing.T) {
	payload := randomPayload(4, 10_000)
	d := digestOf(payload)
	c := testCache(t, 1<<20)
	tap := tapFor(c, d, 0, true)
	stream := append(upstreamFrames(payload[:5000], 5000), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3)
	if err := feed(tap, stream, 100); !errors.Is(err, wire.ErrChecksum) {
		t.Fatalf("session ended with %v, want ErrChecksum", err)
	}
	tap.commit(false)
	want := wire.ByteRange{Off: 0, Len: 5000}
	if rs := c.Ranges(d); len(rs) != 1 || rs[0] != want {
		t.Fatalf("ranges = %v, want [%v]", rs, want)
	}
	if got := readCached(t, c, d, want); !bytes.Equal(got, payload[:5000]) {
		t.Fatal("cached prefix differs")
	}
}

// TestCacheTapWrongDigestNeverAdvertised: a session whose bytes do not
// hash to the digest it carries completes, is caught by the running
// hash at commit, and leaves nothing.
func TestCacheTapWrongDigestNeverAdvertised(t *testing.T) {
	payload := randomPayload(5, 150_000)
	d := digestOf(payload)
	d.Sum[0] ^= 1
	c := testCache(t, 1<<20)
	tap := tapFor(c, d, 0, false)
	feed(tap, payload, 32<<10)
	tap.commit(true)
	tap.settle()
	if len(c.Keys()) != 0 || c.Ranges(d) != nil || c.Stats().MemBytes != 0 {
		t.Fatalf("mis-digested object held: %+v", c.Stats())
	}
}

// TestCacheTapTamperedSpanFailsAtServe: bytes populated in one pass are
// CRC-framed like any other; damage after the fact surfaces as
// ErrChecksum when they are served and evicts the span.
func TestCacheTapTamperedSpanFailsAtServe(t *testing.T) {
	payload := randomPayload(6, 200_000)
	d := digestOf(payload)
	c := testCache(t, 1<<20)
	tap := tapFor(c, d, 0, true)
	feed(tap, upstreamFrames(payload, 32<<10), 32<<10)
	tap.commit(true)
	tap.settle()
	if !c.Tamper(d, 150_000) {
		t.Fatal("Tamper found no span")
	}
	rc, err := c.Open(d, wire.ByteRange{Off: 0, Len: d.Size})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := io.ReadAll(rc); !errors.Is(err, wire.ErrChecksum) {
		t.Fatalf("read of a tampered span: %v, want ErrChecksum", err)
	}
	if c.Ranges(d) != nil || len(c.Keys()) != 0 {
		t.Fatal("the damaged span is still held")
	}
}

// TestCacheTapSkipsHeldRange: a session repeating bytes the cache holds
// gets no tap, so it costs the cache nothing; one that would extend
// them does.
func TestCacheTapSkipsHeldRange(t *testing.T) {
	payload := randomPayload(7, 100_000)
	d := digestOf(payload)
	c := testCache(t, 1<<20)
	if err := c.Put(d, 50_000, payload[50_000:]); err != nil {
		t.Fatal(err)
	}
	if tapFor(c, d, 50_000, false) != nil || tapFor(c, d, 70_000, true) != nil {
		t.Fatal("a held range got a population tap")
	}
	if tapFor(c, d, 0, false) == nil {
		t.Fatal("a range only partly held got no tap")
	}
}

// TestCacheTapMultipathRangeSession: a multipath session is promised
// the rest of the object and delivers one claimed piece of it, so its
// tap carries no whole-object hash — the piece is held, not advertised.
// Should a piece be the whole object after all, it is the settle's
// re-read that proves it, not the commit.
func TestCacheTapMultipathRangeSession(t *testing.T) {
	payload := randomPayload(9, 300_000)
	d := digestOf(payload)
	tap := func(c *cache.Cache) *cacheTap {
		h := &wire.Header{Version: wire.Version1, Type: wire.TypeData}
		h.AddOption(wire.ContentDigestOption(d))
		h.AddOption(wire.PathIndexOption(0, 2))
		return (&Server{cfg: Config{Cache: c}}).cacheTap(h)
	}

	c := testCache(t, 1<<20)
	piece := tap(c)
	feed(piece, payload[:100_000], 32<<10)
	piece.commit(true)
	piece.settle()
	if rs := c.Ranges(d); len(rs) != 1 || rs[0] != (wire.ByteRange{Off: 0, Len: 100_000}) || len(c.Keys()) != 0 {
		t.Fatalf("Ranges = %v, Keys = %v after one piece", rs, c.Keys())
	}
	if got := readCached(t, c, d, wire.ByteRange{Off: 0, Len: 100_000}); !bytes.Equal(got, payload[:100_000]) {
		t.Fatal("the piece reads back wrong")
	}

	c = testCache(t, 1<<20)
	whole := tap(c)
	feed(whole, payload, 32<<10)
	whole.commit(true)
	if len(c.Keys()) != 0 {
		t.Fatal("a multipath session's commit advertised the object without a hash of it")
	}
	whole.settle()
	if len(c.Keys()) != 1 {
		t.Fatal("a piece that was the whole object was not proven at settle")
	}
}

// TestCacheDropAfterDeliveryIsFinal: by the time a sink has seen a
// session end, the forwarding depot has committed it — so dropping the
// object then really drops it, and the next session carrying the digest
// is forwarded and tapped again rather than short-circuited by a commit
// that landed late.
func TestCacheDropAfterDeliveryIsFinal(t *testing.T) {
	h := newHarness(t)
	c := testCache(t, 4<<20)
	h.addDepot(epB, Config{Cache: c})
	h.addDepot(epC, Config{Local: h.unframingLocal()})
	payload := randomPayload(8, 256<<10)
	d := digestOf(payload)
	for i := 0; i < 40; i++ {
		id := sendDigested(t, h, epC, []wire.Endpoint{epB}, payload)
		if rs := c.Ranges(d); len(rs) != 1 || rs[0] != (wire.ByteRange{Off: 0, Len: d.Size}) {
			t.Fatalf("session %d (%s) delivered, cache does not hold it yet", i, id)
		}
		c.Drop(d)
	}
	if st := c.Stats(); st.Hits != 0 {
		t.Fatalf("a dropped object was served from cache: %+v", st)
	}
}

// BenchmarkCachePopulate is the cache tap's whole cost per forwarded
// object: 8 MiB handed to the tap as the pump's read side hands it over
// — verified frames of a sender's 32 KiB writes, verified frames that
// are already the cache's blocks (their CRC adopted, not recomputed),
// plain 32 KiB chunks — then commit and settle. bytes/op is the memory
// the population itself takes — one framed copy of the object.
func BenchmarkCachePopulate(b *testing.B) {
	payload := randomPayload(9, 8<<20)
	d := digestOf(payload)
	for _, bc := range []struct {
		name   string
		pieces [][]byte
	}{
		{"framed", splitFrames(upstreamFrames(payload, chunkSize))},
		{"blocks", splitFrames(upstreamFrames(payload, wire.MaxFramePayload))},
		{"unframed", splitFrames(upstreamFrames(payload, chunkSize))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c, err := cache.New(cache.Config{MemoryBytes: 64 << 20})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(d.Size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tap := tapFor(c, d, 0, bc.name != "unframed")
				for _, frame := range bc.pieces {
					if !tap.framed {
						frame = frame[wire.FrameHeaderLen:]
					}
					tap.put(frame)
				}
				tap.commit(true)
				tap.settle()
				if len(c.Keys()) != 1 {
					b.Fatal("object not complete")
				}
				c.Drop(d)
			}
		})
	}
}
