package cache

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// object builds a deterministic test object and its digest.
func object(t *testing.T, seed int64, size int) ([]byte, wire.ContentDigest) {
	t.Helper()
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	return data, wire.ContentDigest{Size: int64(size), Sum: sha256.Sum256(data)}
}

// Holds reports whether the cache contiguously holds r, without
// counting a serve attempt.
func (c *Cache) Holds(key wire.ContentDigest, r wire.ByteRange) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	return e != nil && r.Len > 0 && coverFrom(e.spans, r.Off) >= r.End()
}

func readRange(t *testing.T, c *Cache, key wire.ContentDigest, r wire.ByteRange) []byte {
	t.Helper()
	rc, err := c.Open(key, r)
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

func TestPutOpenRoundTrip(t *testing.T) {
	c, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	data, key := object(t, 1, 200_000)
	if err := c.Put(key, 0, data); err != nil {
		t.Fatal(err)
	}
	if got := readRange(t, c, key, wire.ByteRange{Off: 0, Len: key.Size}); !bytes.Equal(got, data) {
		t.Fatal("full read mismatch")
	}
	mid := wire.ByteRange{Off: 70_000, Len: 80_000}
	if got := readRange(t, c, key, mid); !bytes.Equal(got, data[70_000:150_000]) {
		t.Fatal("mid-range read mismatch")
	}
	if ks := c.Keys(); len(ks) != 1 || ks[0] != key {
		t.Fatalf("Keys() = %+v, want the completed object", ks)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 0 || st.Complete != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRangesAccreteAndCoalesce(t *testing.T) {
	c, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	data, key := object(t, 2, 100_000)
	// Out-of-order, overlapping population: [40k,70k), [0,50k), [70k,100k).
	for _, r := range []wire.ByteRange{{Off: 40_000, Len: 30_000}, {Off: 0, Len: 50_000}, {Off: 70_000, Len: 30_000}} {
		if err := c.Put(key, r.Off, data[r.Off:r.End()]); err != nil {
			t.Fatal(err)
		}
	}
	rs := c.Ranges(key)
	if len(rs) != 1 || rs[0] != (wire.ByteRange{Off: 0, Len: 100_000}) {
		t.Fatalf("Ranges() = %+v, want one full range", rs)
	}
	if !c.Holds(key, wire.ByteRange{Off: 10, Len: 99_000}) {
		t.Fatal("Holds() = false for covered range")
	}
	if got := readRange(t, c, key, wire.ByteRange{Off: 0, Len: key.Size}); !bytes.Equal(got, data) {
		t.Fatal("stitched read mismatch")
	}
}

func TestMissesAndPartialCoverage(t *testing.T) {
	c, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	data, key := object(t, 3, 100_000)
	if err := c.Put(key, 0, data[:40_000]); err != nil {
		t.Fatal(err)
	}
	if c.Holds(key, wire.ByteRange{Off: 0, Len: 50_000}) {
		t.Fatal("Holds() = true across a gap")
	}
	if _, err := c.Open(key, wire.ByteRange{Off: 30_000, Len: 20_000}); !errors.Is(err, ErrMiss) {
		t.Fatalf("Open across gap: %v, want ErrMiss", err)
	}
	if ks := c.Keys(); len(ks) != 0 {
		t.Fatalf("partial object advertised in inventory: %+v", ks)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 0 { // the one serve attempt
		t.Fatalf("stats = %+v", st)
	}
}

func TestCompletionVerifiesWholeObject(t *testing.T) {
	c, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	data, key := object(t, 4, 50_000)
	// Lie about the bytes: same digest key, wrong content.
	bogus := append([]byte(nil), data...)
	bogus[123] ^= 0xFF
	if err := c.Put(key, 0, bogus); err != nil {
		t.Fatal(err)
	}
	if ks := c.Keys(); len(ks) != 0 {
		t.Fatal("object whose bytes do not hash to its key survived completion")
	}
	if rs := c.Ranges(key); rs != nil {
		t.Fatalf("mismatched entry still advertises %+v", rs)
	}
}

func TestTamperSurfacesAsChecksumMidRead(t *testing.T) {
	c, err := New(Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	data, key := object(t, 5, 300_000)
	if err := c.Put(key, 0, data); err != nil {
		t.Fatal(err)
	}
	// Damage a frame past the first: the read must yield a verified
	// prefix, then fail with wire.ErrChecksum.
	if !c.Tamper(key, 200_000) {
		t.Fatal("Tamper found no span")
	}
	rc, err := c.Open(key, wire.ByteRange{Off: 0, Len: key.Size})
	if err != nil {
		t.Fatalf("Open after tamper: %v", err)
	}
	defer rc.Close()
	got, rerr := io.ReadAll(rc)
	if !errors.Is(rerr, wire.ErrChecksum) {
		t.Fatalf("read err = %v, want ErrChecksum", rerr)
	}
	if len(got) == 0 || len(got) >= 300_000 {
		t.Fatalf("verified prefix = %d bytes, want partial", len(got))
	}
	if !bytes.Equal(got, data[:len(got)]) {
		t.Fatal("verified prefix does not match the original bytes")
	}
	// The damaged span is gone: probes tell the truth now.
	if c.Holds(key, wire.ByteRange{Off: 0, Len: key.Size}) {
		t.Fatal("cache still claims the damaged range")
	}
}

func TestLRUSpillAndEvict(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	// Memory fits ~2 of the 64 KiB objects (framed), disk ~4.
	c, err := New(Config{MemoryBytes: 150 << 10, Dir: dir, DiskBytes: 300 << 10, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	type obj struct {
		data []byte
		key  wire.ContentDigest
	}
	var objs []obj
	for i := int64(0); i < 8; i++ {
		data, key := object(t, 100+i, 64<<10)
		objs = append(objs, obj{data, key})
		if err := c.Put(key, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.MemBytes > 150<<10 || st.DiskBytes > 300<<10 {
		t.Fatalf("budgets exceeded: %+v", st)
	}
	if reg.Counter(MetricEvictions).Value() == 0 {
		t.Fatal("no evictions counted despite overflow")
	}
	if g := reg.Gauge(MetricOccupancy).Value(); g != st.MemBytes+st.DiskBytes {
		t.Fatalf("occupancy gauge %d != %d", g, st.MemBytes+st.DiskBytes)
	}
	// The hottest objects must still be readable — the most recent Put
	// always is — and reads must verify, wherever the span lives.
	last := objs[len(objs)-1]
	if got := readRange(t, c, last.key, wire.ByteRange{Off: 0, Len: last.key.Size}); !bytes.Equal(got, last.data) {
		t.Fatal("hottest object unreadable or wrong after rebalancing")
	}
	// Some spans must have spilled to disk and remain readable there.
	spilled := 0
	for _, o := range objs {
		if c.Holds(o.key, wire.ByteRange{Off: 0, Len: o.key.Size}) {
			got := readRange(t, c, o.key, wire.ByteRange{Off: 0, Len: o.key.Size})
			if !bytes.Equal(got, o.data) {
				t.Fatalf("held object %x reads wrong bytes", o.key.Sum[:4])
			}
			spilled++
		}
	}
	if spilled == 0 {
		t.Fatal("everything evicted; disk tier never used")
	}
}

func TestMemoryOnlyEvictsWithoutDir(t *testing.T) {
	c, err := New(Config{MemoryBytes: 100 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		data, key := object(t, 200+i, 48<<10)
		if err := c.Put(key, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.MemBytes > 100<<10 {
		t.Fatalf("memory budget exceeded: %+v", st)
	}
	if st.DiskBytes != 0 {
		t.Fatal("disk bytes without a disk tier")
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions in memory-only overflow")
	}
}

func TestRecoverFromDisk(t *testing.T) {
	dir := t.TempDir()
	var keys []wire.ContentDigest
	var datas [][]byte
	{
		c, err := New(Config{MemoryBytes: 64 << 10, Dir: dir, DiskBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		// Small memory tier forces spills; everything should survive on
		// disk within budget.
		for i := int64(0); i < 4; i++ {
			data, key := object(t, 300+i, 56<<10)
			keys = append(keys, key)
			datas = append(datas, data)
			if err := c.Put(key, 0, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A fresh cache over the same directory re-indexes the spilled spans.
	c, err := New(Config{MemoryBytes: 64 << 10, Dir: dir, DiskBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Recovered == 0 {
		t.Fatalf("nothing recovered: %+v", st)
	}
	found := 0
	for i, key := range keys {
		if c.Holds(key, wire.ByteRange{Off: 0, Len: key.Size}) {
			if got := readRange(t, c, key, wire.ByteRange{Off: 0, Len: key.Size}); !bytes.Equal(got, datas[i]) {
				t.Fatalf("recovered object %d reads wrong bytes", i)
			}
			found++
		}
	}
	if found == 0 {
		t.Fatal("no object survived restart")
	}
	// Recovered full objects are re-proven and advertised.
	if len(c.Keys()) != found {
		t.Fatalf("inventory %d != readable objects %d", len(c.Keys()), found)
	}
}

func TestRecoverDropsDamagedAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	data, key := object(t, 400, 56<<10)
	{
		c, err := New(Config{MemoryBytes: 8 << 10, Dir: dir, DiskBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(key, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	des, err := os.ReadDir(dir)
	if err != nil || len(des) == 0 {
		t.Fatalf("no spilled files (%v)", err)
	}
	// Damage one spilled file in place, and drop garbage alongside.
	victim := filepath.Join(dir, des[0].Name())
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "not-a-span.c"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, strings.Replace(des[0].Name(), spanExt, spanExt+".tmp123", 1)), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := New(Config{MemoryBytes: 8 << 10, Dir: dir, DiskBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Dropped < 2 {
		t.Fatalf("Dropped = %d, want >= 2 (damaged + misnamed)", st.Dropped)
	}
	if c.Holds(key, wire.ByteRange{Off: 0, Len: key.Size}) {
		t.Fatal("cache claims a range whose backing file was damaged")
	}
	left, _ := os.ReadDir(dir)
	for _, de := range left {
		if strings.Contains(de.Name(), ".tmp") {
			t.Fatalf("tmp leftover survived re-index: %s", de.Name())
		}
	}
}

func TestSpanNameRoundTrip(t *testing.T) {
	_, key := object(t, 500, 12345)
	name := spanFileName(key, 100, 999)
	got, off, length, ok := parseSpanName(name)
	if !ok || got != key || off != 100 || length != 999 {
		t.Fatalf("parseSpanName(%q) = %+v %d %d %v", name, got, off, length, ok)
	}
	for _, bad := range []string{
		"", "x.c", name + "x", strings.Replace(name, "-", "_", 1),
		spanFileName(key, 12345, 1), // off+len > size
	} {
		if _, _, _, ok := parseSpanName(bad); ok && bad != name {
			t.Errorf("parseSpanName(%q) accepted", bad)
		}
	}
}

func TestPutRejectsOutOfBounds(t *testing.T) {
	c, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	_, key := object(t, 600, 1000)
	if err := c.Put(key, 900, make([]byte, 200)); err == nil {
		t.Fatal("out-of-bounds put accepted")
	}
	if err := c.Put(key, -1, make([]byte, 1)); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := c.Put(key, 0, nil); err != nil {
		t.Fatalf("empty put: %v", err)
	}
}

func TestConcurrentPutOpen(t *testing.T) {
	c, err := New(Config{MemoryBytes: 4 << 20, Dir: t.TempDir(), DiskBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := int64(0); g < 8; g++ {
		go func(g int64) {
			data, key := object(t, 700+g%3, 128<<10) // 3 distinct objects, contended
			for i := 0; i < 20; i++ {
				if err := c.Put(key, 0, data); err != nil {
					done <- err
					return
				}
				rc, err := c.Open(key, wire.ByteRange{Off: 0, Len: key.Size})
				if err != nil {
					continue
				}
				got, rerr := io.ReadAll(rc)
				rc.Close()
				if rerr == nil && !bytes.Equal(got, data) {
					done <- errors.New("concurrent read returned wrong bytes")
					return
				}
			}
			done <- nil
		}(g)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
