package cache

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/netlogistics/lsl/internal/wire"
)

// fillIn writes data into a fill piece bytes at a time.
func fillIn(t *testing.T, f *Fill, data []byte, piece int) {
	t.Helper()
	for len(data) > 0 {
		n := min(piece, len(data))
		if _, err := f.Write(data[:n]); err != nil {
			t.Fatalf("Fill.Write: %v", err)
		}
		data = data[n:]
	}
}

// stored returns a memory span's stored bytes: what spilling it writes.
func stored(sp *span) []byte {
	raw, _ := io.ReadAll(frames(sp.blocks))
	return raw
}

// checkAccounting holds the index to its invariants: spans of an entry
// sorted and disjoint, memUsed and diskUsed the sums of their framed
// sizes, and framed the size of what is actually stored.
func checkAccounting(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var mem, disk int64
	for key, e := range c.entries {
		at := int64(0)
		for _, sp := range e.spans {
			if sp.off < at {
				t.Fatalf("entry %x: span at %d overlaps the one ending at %d", key.Sum[:4], sp.off, at)
			}
			at = sp.end()
			if sp.blocks == nil {
				disk += sp.framed
				continue
			}
			mem += sp.framed
			if got := int64(len(stored(sp))); got != sp.framed {
				t.Fatalf("span [%d,%d): stores %d bytes, accounts %d", sp.off, sp.end(), got, sp.framed)
			}
			for _, block := range sp.blocks {
				if len(block) != cap(block) {
					t.Fatalf("span [%d,%d): block of %d bytes holds %d of memory", sp.off, sp.end(), len(block), cap(block))
				}
			}
		}
	}
	if mem != c.memUsed || disk != c.diskUsed {
		t.Fatalf("memUsed %d diskUsed %d, spans sum to %d and %d", c.memUsed, c.diskUsed, mem, disk)
	}
}

// TestFillStoresTheCanonicalFrames: whatever the size of the pieces a
// fill is written in, the stored span is byte for byte what a
// FrameWriter makes of the payload — the format Open, Tamper, spill and
// recover read — and a whole-object fill completes the entry in Commit,
// with no re-read.
func TestFillStoresTheCanonicalFrames(t *testing.T) {
	data, key := object(t, 800, 3*wire.MaxFramePayload+12345)
	var want bytes.Buffer
	wire.NewFrameWriter(&want).Write(data)
	for _, piece := range []int{1, 7, 32 << 10, wire.MaxFramePayload, len(data)} {
		c, err := New(Config{MemoryBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		f := c.Begin(key, wire.ByteRange{Off: 0, Len: key.Size})
		fillIn(t, f, data, piece)
		if err := f.Commit(); err != nil {
			t.Fatal(err)
		}
		sp := c.entries[key].spans[0]
		if !bytes.Equal(stored(sp), want.Bytes()) {
			t.Fatalf("piece %d: stored span differs from the FrameWriter's framing", piece)
		}
		if !c.entries[key].complete {
			t.Fatalf("piece %d: whole-object fill not complete at Commit", piece)
		}
		f.Settle()
		if ks := c.Keys(); len(ks) != 1 || ks[0] != key {
			t.Fatalf("piece %d: Keys() = %v", piece, ks)
		}
		if got := readRange(t, c, key, wire.ByteRange{Off: 0, Len: key.Size}); !bytes.Equal(got, data) {
			t.Fatalf("piece %d: read back differs", piece)
		}
		if want := key.Size + int64(FrameOverhead(int(key.Size))); c.Stats().MemBytes != want {
			t.Fatalf("piece %d: MemBytes = %d, want %d", piece, c.Stats().MemBytes, want)
		}
		checkAccounting(t, c)
	}
}

// TestFillShortOfItsRange: a session that delivers less than its header
// promised (a multipath range session promises the rest of the object)
// stores what it delivered, in frames cut to size.
func TestFillShortOfItsRange(t *testing.T) {
	data, key := object(t, 801, 1<<20)
	c, err := New(Config{MemoryBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const off, n = 100_000, 200_000
	f := c.Begin(key, wire.ByteRange{Off: off, Len: key.Size - off})
	fillIn(t, f, data[off:off+n], 32<<10)
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	f.Settle()
	if rs := c.Ranges(key); len(rs) != 1 || rs[0] != (wire.ByteRange{Off: off, Len: n}) {
		t.Fatalf("Ranges() = %v", rs)
	}
	if got := readRange(t, c, key, wire.ByteRange{Off: off, Len: n}); !bytes.Equal(got, data[off:off+n]) {
		t.Fatal("read back differs")
	}
	checkAccounting(t, c)
}

// TestFillOverflowStoresNothingOfIt: a write past the range fails whole.
func TestFillOverflowStoresNothingOfIt(t *testing.T) {
	data, key := object(t, 803, 1000)
	c, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	f := c.Begin(key, wire.ByteRange{Off: 0, Len: key.Size})
	fillIn(t, f, data[:900], 900)
	if n, err := f.Write(make([]byte, 101)); n != 0 || !errors.Is(err, errOverflow) {
		t.Fatalf("overflowing Write = %d, %v", n, err)
	}
	fillIn(t, f, data[900:], 100)
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(c.Keys()) != 1 {
		t.Fatal("a refused write damaged the fill")
	}
}

// TestBeginRefusesHeldAndForeignRanges: nothing to fill, no fill.
func TestBeginRefusesHeldAndForeignRanges(t *testing.T) {
	data, key := object(t, 804, 100_000)
	c, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key, 0, data[:60_000]); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	for _, r := range []wire.ByteRange{{Off: 0, Len: 60_000}, {Off: 10, Len: 100}, {Off: -1, Len: 5}, {Off: 0, Len: 0}, {Off: 50_000, Len: 60_000}} {
		if c.Begin(key, r) != nil {
			t.Fatalf("Begin(%+v) returned a fill", r)
		}
	}
	if c.Begin(key, wire.ByteRange{Off: 50_000, Len: 50_000}) == nil {
		t.Fatal("Begin refused a range that is only partly held")
	}
	if c.Stats() != before {
		t.Fatalf("Begin disturbed the stats: %+v -> %+v", before, c.Stats())
	}
}

// TestAbandonedFillLeavesNoTrace: a fill never committed never was.
func TestAbandonedFillLeavesNoTrace(t *testing.T) {
	data, key := object(t, 805, 300_000)
	c, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	f := c.Begin(key, wire.ByteRange{Off: 0, Len: key.Size})
	fillIn(t, f, data, 32<<10)
	if c.Stats() != before {
		t.Fatalf("an uncommitted fill shows in the stats: %+v", c.Stats())
	}
	f.Settle() // nothing was committed: nothing to settle
	if c.Stats() != before || c.Ranges(key) != nil || len(c.Keys()) != 0 {
		t.Fatal("an uncommitted fill is visible")
	}
}

// TestSinglePassWrongSumDropsEntry: the running hash is the proof. A
// whole-object fill whose bytes do not hash to the key is dropped at
// Commit and never advertised.
func TestSinglePassWrongSumDropsEntry(t *testing.T) {
	data, key := object(t, 806, 200_000)
	bogus := append([]byte(nil), data...)
	bogus[len(bogus)-1] ^= 1
	c, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	f := c.Begin(key, wire.ByteRange{Off: 0, Len: key.Size})
	fillIn(t, f, bogus, 32<<10)
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	f.Settle()
	if len(c.Keys()) != 0 || c.Ranges(key) != nil {
		t.Fatal("an object that does not hash to its key is held")
	}
	if st := c.Stats(); st.Objects != 0 || st.MemBytes != 0 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCompleteNeedsAProof pins what `complete` means on each of the
// two routes to it. Single pass: damage done to the stored frames
// after Commit is not covered by the running hash, and does not need
// to be — every read CRC-checks every frame — so the serve fails with
// ErrChecksum, the span is evicted and the entry stops being
// advertised. Accretion: Settle re-reads the spans, so the same damage
// done before the last span lands keeps the entry from ever completing.
func TestCompleteNeedsAProof(t *testing.T) {
	data, key := object(t, 807, 4*wire.MaxFramePayload)
	whole := wire.ByteRange{Off: 0, Len: key.Size}

	c, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	f := c.Begin(key, whole)
	fillIn(t, f, data, 32<<10)
	f.Commit()
	f.Settle()
	if !c.Tamper(key, 2*wire.MaxFramePayload+5) {
		t.Fatal("Tamper found no span")
	}
	rc, err := c.Open(key, whole)
	if err != nil {
		t.Fatal(err)
	}
	got, rerr := io.ReadAll(rc)
	rc.Close()
	if !errors.Is(rerr, wire.ErrChecksum) || !bytes.Equal(got, data[:2*wire.MaxFramePayload]) {
		t.Fatalf("read of a tampered single-pass span: %d bytes, %v", len(got), rerr)
	}
	if st := c.Stats(); len(c.Keys()) != 0 || c.Holds(key, whole) || st.Evictions != 1 || st.MemBytes != 0 {
		t.Fatalf("tampered span still held: %+v", st)
	}

	c, err = New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	half := key.Size / 2
	if err := c.Put(key, 0, data[:half]); err != nil {
		t.Fatal(err)
	}
	c.Tamper(key, 5)
	if err := c.Put(key, half, data[half:]); err != nil {
		t.Fatal(err)
	}
	if len(c.Keys()) != 0 || c.Ranges(key) != nil {
		t.Fatal("an entry with a damaged span completed by accretion")
	}
}

// TestAccretionCompletes: the benchmark's cache.put shape — an 8 MiB
// object put 1 MiB at a time — ends complete, proven by Settle's
// re-read, and reads back whole. Commit alone must not have proven it.
func TestAccretionCompletes(t *testing.T) {
	data, key := object(t, 808, 8<<20)
	c, err := New(Config{MemoryBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < key.Size-1<<20; off += 1 << 20 {
		if err := c.Put(key, off, data[off:off+1<<20]); err != nil {
			t.Fatal(err)
		}
	}
	last := wire.ByteRange{Off: key.Size - 1<<20, Len: 1 << 20}
	f := c.Begin(key, last)
	fillIn(t, f, data[last.Off:], 32<<10)
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	if !c.Holds(key, wire.ByteRange{Off: 0, Len: key.Size}) || len(c.Keys()) != 0 {
		t.Fatal("after Commit the object must be held and not yet advertised")
	}
	f.Settle()
	if ks := c.Keys(); len(ks) != 1 || ks[0] != key {
		t.Fatalf("Keys() = %v after the last span settled", ks)
	}
	if got := readRange(t, c, key, wire.ByteRange{Off: 0, Len: key.Size}); !bytes.Equal(got, data) {
		t.Fatal("stitched read differs")
	}
	checkAccounting(t, c)
}

// TestConcurrentFillsOfOneObject: sessions carrying the same digest at
// once — whole-object fills and range fills racing — leave one set of
// disjoint spans, accounted exactly, and a complete entry.
func TestConcurrentFillsOfOneObject(t *testing.T) {
	data, key := object(t, 809, 1<<20)
	c, err := New(Config{MemoryBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		r := wire.ByteRange{Off: 0, Len: key.Size}
		if g%2 == 1 {
			r = wire.ByteRange{Off: int64(g) * 100_000, Len: 300_000}
		}
		f := c.Begin(key, r)
		if f == nil {
			t.Fatal("Begin refused an empty cache")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for at := r.Off; at < r.End(); at += 32 << 10 {
				f.Write(data[at:min(at+32<<10, r.End())])
			}
			if err := f.Commit(); err != nil {
				t.Error(err)
			}
			f.Settle()
		}()
	}
	wg.Wait()
	checkAccounting(t, c)
	st := c.Stats()
	if want := key.Size + int64(len(c.entries[key].spans))*wire.FrameHeaderLen; st.Objects != 1 || st.Complete != 1 || st.MemBytes < want {
		t.Fatalf("stats = %+v", st)
	}
	if got := readRange(t, c, key, wire.ByteRange{Off: 0, Len: key.Size}); !bytes.Equal(got, data) {
		t.Fatal("read back differs")
	}
}

// TestSinglePassSpanSurvivesRestart: a span populated in one pass
// spills in the format the parent commit wrote, and a fresh cache over
// the directory re-verifies it frame by frame and end to end.
func TestSinglePassSpanSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	data, key := object(t, 810, 5*wire.MaxFramePayload+99)
	{
		c, err := New(Config{MemoryBytes: 64 << 10, Dir: dir, DiskBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		f := c.Begin(key, wire.ByteRange{Off: 0, Len: key.Size})
		fillIn(t, f, data, 32<<10)
		if err := f.Commit(); err != nil {
			t.Fatal(err)
		}
		f.Settle() // over the memory budget: spills
		if st := c.Stats(); st.MemBytes != 0 || st.DiskBytes == 0 || st.Complete != 1 {
			t.Fatalf("stats after spill = %+v", st)
		}
		checkAccounting(t, c)
	}
	var want bytes.Buffer
	wire.NewFrameWriter(&want).Write(data)
	raw, err := os.ReadFile(filepath.Join(dir, spanFileName(key, 0, key.Size)))
	if err != nil || !bytes.Equal(raw, want.Bytes()) {
		t.Fatalf("spilled file is not the canonical framing (%v)", err)
	}
	c, err := New(Config{MemoryBytes: 64 << 10, Dir: dir, DiskBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Recovered != 1 || st.Complete != 1 {
		t.Fatalf("stats after restart = %+v", st)
	}
	if got := readRange(t, c, key, wire.ByteRange{Off: 0, Len: key.Size}); !bytes.Equal(got, data) {
		t.Fatal("recovered object reads wrong bytes")
	}
}
