//go:build unix

package cache

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/wire"
)

// within fails the test unless fn returns in a bounded time.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not finish", what)
	}
}

// settleHeldInTheHash covers an object with two spans, the first
// spilled to a file that is then replaced by a FIFO, the second small
// enough to stay in memory, and starts the Settle that has to prove the
// object. It returns with that Settle inside the hash, waiting for the
// first span's bytes: feed supplies them, settled closes when Settle
// has returned.
func settleHeldInTheHash(t *testing.T) (c *Cache, key wire.ContentDigest, feed func(), settled chan struct{}) {
	t.Helper()
	dir := t.TempDir()
	data, key := object(t, 811, 4*wire.MaxFramePayload)
	cut := key.Size - wire.MaxFramePayload
	c, err := New(Config{MemoryBytes: 100 << 10, Dir: dir, DiskBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key, 0, data[:cut]); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.MemBytes != 0 || st.DiskBytes == 0 {
		t.Fatalf("first span not spilled: %+v", st)
	}
	f := c.Begin(key, wire.ByteRange{Off: cut, Len: key.Size - cut})
	fillIn(t, f, data[cut:], 32<<10)
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, spanFileName(key, 0, cut))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Fatal(err)
	}
	settled = make(chan struct{})
	go func() { f.Settle(); close(settled) }()
	// Opening a FIFO for writing returns when a reader has opened it:
	// the hash has reached the first span.
	var w *os.File
	within(t, "Settle reaching the spilled span", func() { w, err = os.OpenFile(path, os.O_WRONLY, 0) })
	if err != nil {
		t.Fatal(err)
	}
	return c, key, func() { w.Write(raw); w.Close() }, settled
}

// TestSettleHashesWithTheCacheUnlocked: proving an object completed by
// accretion takes as long as reading and hashing it does, and no other
// session's Commit — which stands between its sink and the end of the
// stream — may wait for that. Held inside the hash, Settle must leave
// the cache usable; let go, it completes the entry.
func TestSettleHashesWithTheCacheUnlocked(t *testing.T) {
	c, key, feed, settled := settleHeldInTheHash(t)
	other, otherKey := object(t, 812, 3000)
	within(t, "another object's population while this one is hashed", func() {
		g := c.Begin(otherKey, wire.ByteRange{Off: 0, Len: otherKey.Size})
		g.Write(other)
		if err := g.Commit(); err != nil {
			t.Error(err)
		}
		c.Holds(key, wire.ByteRange{Off: 0, Len: key.Size})
		c.Stats()
	})
	if ks := c.Keys(); len(ks) != 1 || ks[0] != otherKey {
		t.Fatalf("Keys() = %v while the first object is still being proven", ks)
	}
	feed()
	<-settled
	if len(c.Keys()) != 2 {
		t.Fatalf("Keys() = %v after the hash finished", c.Keys())
	}
	checkAccounting(t, c)
}

// TestSettleDiscardsAHashOfSpansThatWent: the hash runs on the spans as
// they stood when it began. If one has been evicted by the time it
// ends, the entry no longer holds the bytes that were hashed and must
// not be called complete, however well they hashed.
func TestSettleDiscardsAHashOfSpansThatWent(t *testing.T) {
	c, key, feed, settled := settleHeldInTheHash(t)
	within(t, "an eviction while the object is hashed", func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.evict(c.entries[key].spans[1]) // the one in memory: the hash still reads its blocks
	})
	feed()
	<-settled
	if rs := c.Ranges(key); len(c.Keys()) != 0 || len(rs) != 1 || rs[0].End() >= key.Size {
		t.Fatalf("Keys() = %v, Ranges = %v after a span was evicted under the hash", c.Keys(), rs)
	}
	checkAccounting(t, c)
}

// TestPartialFillIsProvenBySettle: a fill told it will stop short of
// its range carries no running hash. Should it fill the whole object
// after all, Commit must not call it complete; Settle's re-read does.
func TestPartialFillIsProvenBySettle(t *testing.T) {
	data, key := object(t, 813, 2*wire.MaxFramePayload+7)
	c, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	f := c.Begin(key, wire.ByteRange{Off: 0, Len: key.Size})
	f.Partial()
	fillIn(t, f, data, 32<<10)
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(c.Keys()) != 0 {
		t.Fatal("complete without a hash")
	}
	f.Settle()
	if len(c.Keys()) != 1 {
		t.Fatal("a fully covered object was not proven by Settle")
	}
}
