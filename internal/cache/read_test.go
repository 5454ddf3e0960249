package cache

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"math/rand"
	"testing"

	"github.com/netlogistics/lsl/internal/bufpool"
	"github.com/netlogistics/lsl/internal/wire"
)

// nextAll drains a range through Reader.Next and returns the frames it
// yielded, each a copy.
func nextAll(t *testing.T, c *Cache, key wire.ContentDigest, r wire.ByteRange) [][]byte {
	t.Helper()
	rc, err := c.Open(key, r)
	if err != nil {
		t.Fatalf("Open(%+v): %v", r, err)
	}
	defer rc.Close()
	bp := bufpool.GetFrame()
	defer bufpool.Put(bp)
	var out [][]byte
	for {
		n, err := rc.Next(*bp)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next over %+v: %v", r, err)
		}
		out = append(out, bytes.Clone((*bp)[:n]))
	}
}

// TestReaderNextServesBlocksAsTheyLie: a range read block by block
// yields well-formed frames carrying exactly the range; every stored
// block that lies wholly inside the range comes out byte for byte as
// the cache holds it — header included —, and only a block the range
// begins or ends inside is re-stamped around the part taken. The same
// from memory and from a spilled file, across a span boundary too.
func TestReaderNextServesBlocksAsTheyLie(t *testing.T) {
	const block = wire.MaxFramePayload
	data, key := object(t, 901, 3*block+12_345)
	var canonical bytes.Buffer
	wire.NewFrameWriter(&canonical).Write(data)
	blockAt := func(i int) []byte { // the i-th stored block of a span starting at 0
		lo := i * wire.MaxFrameLen
		return canonical.Bytes()[lo:min(lo+wire.MaxFrameLen, canonical.Len())]
	}
	for _, tier := range []string{"memory", "disk"} {
		cfg := Config{MemoryBytes: 1 << 20}
		if tier == "disk" {
			cfg = Config{MemoryBytes: 1, Dir: t.TempDir(), DiskBytes: 1 << 20} // everything spills
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(key, 0, data); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); (st.DiskBytes > 0) != (tier == "disk") {
			t.Fatalf("%s: stats %+v", tier, st)
		}
		for _, r := range []wire.ByteRange{
			{Off: 0, Len: key.Size},
			{Off: block, Len: 2 * block},           // block-aligned at both ends
			{Off: 1000, Len: 500},                  // inside one block
			{Off: block - 1, Len: 2},               // one byte either side of a boundary
			{Off: block + 77, Len: 2*block + 5000}, // begins and ends inside blocks
			{Off: 3*block + 345, Len: 12_000},      // inside the short last block
			{Off: 2 * block, Len: block + 12_345},  // to the very end
			{Off: 2*block + 1, Len: key.Size - 2*block - 1},
		} {
			served := c.Stats().BytesServed
			frames := nextAll(t, c, key, r)
			var payload []byte
			for i, frame := range frames {
				scan := wire.NewFrameScanner(bytes.NewReader(frame))
				buf := make([]byte, wire.MaxFrameLen)
				if n, err := scan.ReadFrame(buf); err != nil || n != len(frame) {
					t.Fatalf("%s %+v: frame %d does not verify: %d, %v", tier, r, i, n, err)
				}
				at := r.Off + int64(len(payload))
				if whole := blockAt(int(at / block)); at%block == 0 && at+int64(len(whole))-wire.FrameHeaderLen <= r.End() {
					if !bytes.Equal(frame, whole) {
						t.Fatalf("%s %+v: block at %d was not served as it lies", tier, r, at)
					}
				}
				payload = append(payload, frame[wire.FrameHeaderLen:]...)
			}
			if !bytes.Equal(payload, data[r.Off:r.End()]) {
				t.Fatalf("%s %+v: served %d bytes, not the range", tier, r, len(payload))
			}
			if got := c.Stats().BytesServed - served; got != r.Len {
				t.Fatalf("%s %+v: BytesServed moved by %d", tier, r, got)
			}
			if got := readRange(t, c, key, r); !bytes.Equal(got, payload) {
				t.Fatalf("%s %+v: Read and Next disagree", tier, r)
			}
		}
	}

	// Two spans, the second starting off any block boundary of the
	// object: blocks count from their span's first byte.
	c, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key, 0, data[:100_000])
	c.Put(key, 100_000, data[100_000:])
	r := wire.ByteRange{Off: 90_000, Len: 100_000}
	var payload []byte
	for _, frame := range nextAll(t, c, key, r) {
		payload = append(payload, frame[wire.FrameHeaderLen:]...)
	}
	if !bytes.Equal(payload, data[r.Off:r.End()]) {
		t.Fatal("a range across two spans is not served as the object's bytes")
	}
}

// TestReaderReturnsItsBuffer: Read draws one pooled frame buffer and
// Close gives it back, after a whole read and after an abandoned one.
func TestReaderReturnsItsBuffer(t *testing.T) {
	c, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	data, key := object(t, 902, 200_000)
	c.Put(key, 0, data)
	base := bufpool.Outstanding()
	readRange(t, c, key, wire.ByteRange{Off: 0, Len: key.Size})
	rc, err := c.Open(key, wire.ByteRange{Off: 0, Len: key.Size})
	if err != nil {
		t.Fatal(err)
	}
	rc.Read(make([]byte, 10))
	if bufpool.Outstanding() != base+1 {
		t.Fatalf("a reader in mid-read holds %d buffers", bufpool.Outstanding()-base)
	}
	rc.Close()
	if got := bufpool.Outstanding(); got != base {
		t.Fatalf("%d buffers out after Close", got-base)
	}
}

// TestReaderCloseUnderARead: Close from another goroutine waits for the
// block being read and ends the range behind it — the reading side sees
// whole blocks and then io.EOF, from memory and from a spilled file
// (whose handle Close takes away), and the span is not blamed for it.
func TestReaderCloseUnderARead(t *testing.T) {
	data, key := object(t, 904, 4<<20)
	for _, cfg := range []Config{{MemoryBytes: 8 << 20}, {MemoryBytes: 1, Dir: t.TempDir(), DiskBytes: 8 << 20}} {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Put(key, 0, data)
		rc, err := c.Open(key, wire.ByteRange{Off: 0, Len: key.Size})
		if err != nil {
			t.Fatal(err)
		}
		first, ended := make(chan struct{}), make(chan error, 1)
		go func() {
			buf := make([]byte, wire.MaxFrameLen)
			for i := 0; ; i++ {
				_, err := rc.Next(buf)
				if i == 0 {
					close(first)
				}
				if err != nil {
					ended <- err
					return
				}
			}
		}()
		<-first
		rc.Close()
		if err := <-ended; err != io.EOF {
			t.Fatalf("dir %q: the read under a Close ended with %v, want io.EOF", cfg.Dir, err)
		}
		if !c.Holds(key, wire.ByteRange{Off: 0, Len: key.Size}) {
			t.Fatalf("dir %q: a closed reader cost the cache its span", cfg.Dir)
		}
	}
}

// TestFillWriteFrameAdoptsTheProvenCRC: verified frames that are the
// fill's own blocks are stored as they arrive — the same bytes Write
// would have made of the payload, under the header they came with —
// while frames of any other size are re-framed into blocks. The header
// is adopted, not recomputed: the proof is a frame passed in under a
// wrong one (which the caller's verification rules out), stored as
// given and caught by the next read.
func TestFillWriteFrameAdoptsTheProvenCRC(t *testing.T) {
	data, key := object(t, 903, 2*wire.MaxFramePayload+30_000)
	var canonical bytes.Buffer
	wire.NewFrameWriter(&canonical).Write(data)
	frame := func(lo, hi int) []byte {
		var b bytes.Buffer
		wire.NewFrameWriter(&b).Write(data[lo:hi])
		return b.Bytes()
	}
	for _, size := range []int{wire.MaxFramePayload, 32 << 10, 5000} {
		c, err := New(Config{MemoryBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		f := c.Begin(key, wire.ByteRange{Off: 0, Len: key.Size})
		for lo := 0; lo < len(data); lo += size {
			if _, err := f.WriteFrame(frame(lo, min(lo+size, len(data)))); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Commit(); err != nil {
			t.Fatal(err)
		}
		f.Settle()
		if got := stored(c.entries[key].spans[0]); !bytes.Equal(got, canonical.Bytes()) {
			t.Fatalf("frames of %d bytes: stored span is not the canonical framing", size)
		}
		if ks := c.Keys(); len(ks) != 1 {
			t.Fatalf("frames of %d bytes: whole object not proven at commit", size)
		}
		checkAccounting(t, c)
	}

	c, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	f := c.Begin(key, wire.ByteRange{Off: 0, Len: key.Size})
	lie := frame(0, wire.MaxFramePayload)
	lie[5] ^= 0xFF
	if _, err := f.WriteFrame(lie); err != nil {
		t.Fatal(err)
	}
	f.Commit()
	rc, err := c.Open(key, wire.ByteRange{Off: 0, Len: wire.MaxFramePayload})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := io.ReadAll(rc); !errors.Is(err, wire.ErrChecksum) {
		t.Fatalf("a block adopted under a wrong CRC read back with %v", err)
	}
	if _, err := f.WriteFrame(append(frame(0, 10), make([]byte, key.Size)...)); !errors.Is(err, errOverflow) {
		t.Fatalf("a frame past the range: %v, want errOverflow", err)
	}
}

// BenchmarkCacheRead is the serve side of the cache per 8 MiB object
// held in memory: "stream" reads the payload through Read, as a sink or
// an unchecksummed caller does; "blocks" takes the stored blocks through
// Next, as a depot serving a checksummed session does. Either way each
// byte is CRC-checked once.
func BenchmarkCacheRead(b *testing.B) {
	data := make([]byte, 8<<20)
	rand.New(rand.NewSource(904)).Read(data)
	key := wire.ContentDigest{Size: int64(len(data)), Sum: sha256.Sum256(data)}
	c, err := New(Config{MemoryBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Put(key, 0, data); err != nil {
		b.Fatal(err)
	}
	whole := wire.ByteRange{Off: 0, Len: key.Size}
	buf := make([]byte, wire.MaxFrameLen)
	b.Run("stream", func(b *testing.B) {
		b.SetBytes(key.Size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rc, err := c.Open(key, whole)
			if err != nil {
				b.Fatal(err)
			}
			var n int64
			for {
				m, err := rc.Read(buf)
				n += int64(m)
				if err != nil {
					break
				}
			}
			rc.Close()
			if n != key.Size {
				b.Fatalf("read %d bytes", n)
			}
		}
	})
	b.Run("blocks", func(b *testing.B) {
		b.SetBytes(key.Size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rc, err := c.Open(key, whole)
			if err != nil {
				b.Fatal(err)
			}
			var n int64
			for {
				m, err := rc.Next(buf)
				if err != nil {
					break
				}
				n += int64(m - wire.FrameHeaderLen)
			}
			rc.Close()
			if n != key.Size {
				b.Fatalf("served %d bytes", n)
			}
		}
	})
}
