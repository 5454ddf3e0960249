package depot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/cache"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// testCache builds a memory-only cache for depot tests.
func testCache(t testing.TB, capacity int64) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{MemoryBytes: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// digestOf computes the content digest of a literal payload.
func digestOf(payload []byte) wire.ContentDigest {
	return wire.ContentDigest{Size: int64(len(payload)), Sum: sha256.Sum256(payload)}
}

// unframingLocal is a sink handler that strips CRC framing before
// recording the delivery, so tests compare raw payload bytes.
func (h *harness) unframingLocal() Handler {
	return func(s *lsl.Session) error {
		var buf bytes.Buffer
		_, err := buf.ReadFrom(wire.NewFrameReader(s))
		h.mu.Lock()
		h.delivered[s.ID()] = buf.Bytes()
		h.mu.Unlock()
		h.done <- s.ID()
		return err
	}
}

// sendDigested pushes a checksummed, digest-stamped payload through the
// route and waits for it to land at the sink.
func sendDigested(t *testing.T, h *harness, dst wire.Endpoint, route []wire.Endpoint, payload []byte) wire.SessionID {
	t.Helper()
	d := digestOf(payload)
	sess, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, dst, route,
		wire.ChunkChecksumOption(), wire.ContentDigestOption(d))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		fw := wire.NewFrameWriter(sess)
		fw.Write(payload)
		sess.Close()
	}()
	h.waitDelivery(sess.ID())
	return sess.ID()
}

// TestCacheProbeRefusedWithoutCache: a depot with no cache refuses
// probes, so initiators can tell "no cache" from "cache empty".
func TestCacheProbeRefusedWithoutCache(t *testing.T) {
	h := newHarness(t)
	h.addDepot(epB, Config{})
	_, err := lsl.CacheProbe(h.dialerFrom("10.0.0.1"), epA, epB, digestOf([]byte("x")), time.Now().Add(5*time.Second))
	if !errors.Is(err, lsl.ErrRefused) {
		t.Fatalf("probe of cacheless depot: %v, want ErrRefused", err)
	}
}

// TestCacheForwardPopulatesAndAdvertises forwards a digest-stamped
// payload through a caching relay; afterwards a probe must advertise
// the full range and the inventory must list the digest.
func TestCacheForwardPopulatesAndAdvertises(t *testing.T) {
	h := newHarness(t)
	c := testCache(t, 1<<20)
	h.addDepot(epB, Config{Cache: c})
	h.addDepot(epC, Config{Local: h.unframingLocal()})
	payload := bytes.Repeat([]byte("cache me! "), 4096)
	sendDigested(t, h, epC, []wire.Endpoint{epB}, payload)

	d := digestOf(payload)
	ranges, err := lsl.CacheProbe(h.dialerFrom("10.0.0.1"), epA, epB, d, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	want := wire.ByteRange{Off: 0, Len: int64(len(payload))}
	if len(ranges) != 1 || ranges[0] != want {
		t.Fatalf("advertised ranges = %v, want [%v]", ranges, want)
	}
	inv, err := lsl.CacheInventory(h.dialerFrom("10.0.0.1"), epA, epB, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(inv) != 1 || inv[0] != d {
		t.Fatalf("inventory = %v, want one entry for the forwarded object", inv)
	}
	// A probe for an unknown digest advertises nothing — not an error.
	other := digestOf([]byte("different"))
	if ranges, err := lsl.CacheProbe(h.dialerFrom("10.0.0.1"), epA, epB, other, time.Now().Add(5*time.Second)); err != nil || len(ranges) != 0 {
		t.Fatalf("probe of absent digest = %v, %v", ranges, err)
	}
}

// TestCacheServeDirective populates a relay's cache, then directs it to
// serve the object to the sink from cache: the sink must receive the
// exact payload without the origin sending a byte.
func TestCacheServeDirective(t *testing.T) {
	h := newHarness(t)
	c := testCache(t, 1<<20)
	h.addDepot(epB, Config{Cache: c})
	h.addDepot(epC, Config{Local: h.unframingLocal()})
	payload := bytes.Repeat([]byte("serve from depot "), 4096)
	sendDigested(t, h, epC, []wire.Endpoint{epB}, payload)

	d := digestOf(payload)
	id, err := wire.NewSessionID()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := lsl.Start(h.dialerFrom("10.0.0.1"), lsl.Spec{Type: wire.TypeCacheServe, ID: id, Src: epA, Dst: epC,
		Route: []wire.Endpoint{epB}, Options: []wire.Option{wire.CacheServeOption(d, wire.ByteRange{Off: 0, Len: d.Size}),
			wire.ChunkChecksumOption(), wire.ContentDigestOption(d)}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if got := h.waitDelivery(id); !bytes.Equal(got, payload) {
		t.Fatalf("cache-served %d bytes, want %d", len(got), len(payload))
	}
	if st := c.Stats(); st.Hits == 0 {
		t.Fatalf("cache stats after serve = %+v, want a hit", st)
	}
}

// TestCacheServeSuffixRange directs the holder to serve only the tail
// of the object; the sink's resume offset must be pinned to the range.
func TestCacheServeSuffixRange(t *testing.T) {
	h := newHarness(t)
	c := testCache(t, 1<<20)
	h.addDepot(epB, Config{Cache: c})
	offc := make(chan int64, 1)
	h.addDepot(epC, Config{Local: func(s *lsl.Session) error {
		offc <- s.Header.ResumeOffset()
		var buf bytes.Buffer
		_, err := buf.ReadFrom(wire.NewFrameReader(s))
		h.mu.Lock()
		h.delivered[s.ID()] = buf.Bytes()
		h.mu.Unlock()
		h.done <- s.ID()
		return err
	}})
	payload := bytes.Repeat([]byte("tail service "), 4096)
	sendDigested(t, h, epC, []wire.Endpoint{epB}, payload)
	<-offc // first transfer's offset

	d := digestOf(payload)
	id, err := wire.NewSessionID()
	if err != nil {
		t.Fatal(err)
	}
	r := wire.ByteRange{Off: d.Size / 2, Len: d.Size - d.Size/2}
	sess, err := lsl.Start(h.dialerFrom("10.0.0.1"), lsl.Spec{Type: wire.TypeCacheServe, ID: id, Src: epA, Dst: epC,
		Route: []wire.Endpoint{epB}, Options: []wire.Option{wire.CacheServeOption(d, r), wire.ChunkChecksumOption()}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if got := h.waitDelivery(id); !bytes.Equal(got, payload[r.Off:]) {
		t.Fatalf("cache-served %d bytes, want %d", len(got), r.Len)
	}
	if gotOff := <-offc; gotOff != r.Off {
		t.Fatalf("sink resume offset = %d, want %d", gotOff, r.Off)
	}
}

// TestCacheServeMissRefused: a directive for a range the depot does not
// hold must come back as a protocol refusal, so the initiator falls
// back to the origin instead of hanging.
func TestCacheServeMissRefused(t *testing.T) {
	h := newHarness(t)
	c := testCache(t, 1<<20)
	h.addDepot(epB, Config{Cache: c})
	d := digestOf([]byte("never cached"))
	id, err := wire.NewSessionID()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := lsl.Start(h.dialerFrom("10.0.0.1"), lsl.Spec{Type: wire.TypeCacheServe, ID: id, Src: epA, Dst: epC,
		Route: []wire.Endpoint{epB}, Options: []wire.Option{wire.CacheServeOption(d, wire.ByteRange{Off: 0, Len: d.Size})}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	resp, err := wire.ReadHeader(sess)
	if err != nil {
		t.Fatalf("miss directive response: %v", err)
	}
	if resp.Type != wire.TypeRefuse {
		t.Fatalf("miss directive response type = %d, want TypeRefuse", resp.Type)
	}
}

// TestCacheShortCircuit sends the same digest-stamped object twice
// through a caching relay. The second send must be served from the
// relay's cache: the upstream sublink is terminated, a cache-hit trace
// event is emitted, and the sink still receives the exact bytes.
func TestCacheShortCircuit(t *testing.T) {
	h := newHarness(t)
	c := testCache(t, 1<<20)
	sink := &obs.MemorySink{}
	h.addDepot(epB, Config{Cache: c, Trace: sink})
	h.addDepot(epC, Config{Local: h.unframingLocal()})
	payload := bytes.Repeat([]byte("send twice "), 8192)
	sendDigested(t, h, epC, []wire.Endpoint{epB}, payload)

	// Second transfer of the same object: the relay holds it in full and
	// may terminate this sublink at any moment, so sender errors are
	// expected; the transfer must complete regardless.
	d := digestOf(payload)
	sess, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epC, []wire.Endpoint{epB},
		wire.ChunkChecksumOption(), wire.ContentDigestOption(d))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		fw := wire.NewFrameWriter(sess)
		fw.Write(payload)
		sess.Close()
	}()
	if got := h.waitDelivery(sess.ID()); !bytes.Equal(got, payload) {
		t.Fatalf("short-circuited delivery: %d bytes, want %d", len(got), len(payload))
	}
	var hit bool
	for _, e := range sink.Events() {
		if e.Kind == obs.KindCacheHit && e.Session == sess.ID().String() {
			hit = true
		}
	}
	if !hit {
		t.Fatal("second transfer emitted no cache-hit event")
	}
	if st := c.Stats(); st.Hits == 0 || st.BytesServed == 0 {
		t.Fatalf("cache stats after short-circuit = %+v", st)
	}
}

// TestCacheTapUncheckedPartialDiscarded: an unchecked stream carries no
// per-chunk proof, so a session that dies partway must not populate the
// cache — but a clean completion may.
func TestCacheTapUncheckedPartialDiscarded(t *testing.T) {
	c := testCache(t, 1<<20)
	payload := []byte("half a payload")
	d := digestOf(payload)
	h := &wire.Header{Version: wire.Version1, Type: wire.TypeData}
	h.AddOption(wire.ContentDigestOption(d))
	srv := &Server{cfg: Config{Cache: c}}
	tap := srv.cacheTap(h)
	if tap == nil {
		t.Fatal("cacheable header got no tap")
	}
	tap.put(payload[:4])
	tap.commit(false) // session failed: unverified bytes must not land
	if got := c.Ranges(d); got != nil {
		t.Fatalf("unchecked partial committed: %v", got)
	}
	tap.put(payload[4:])
	tap.commit(true)
	want := wire.ByteRange{Off: 0, Len: d.Size}
	if got := c.Ranges(d); len(got) != 1 || got[0] != want {
		t.Fatalf("clean unchecked session not committed: %v", got)
	}
}

// TestCacheTapFramedPartialKept: a checksummed stream's complete frames
// are CRC-proven, so even a failed session contributes its prefix.
func TestCacheTapFramedPartialKept(t *testing.T) {
	c := testCache(t, 1<<20)
	payload := bytes.Repeat([]byte("z"), 3000)
	d := digestOf(payload)
	h := &wire.Header{Version: wire.Version1, Type: wire.TypeData}
	h.AddOption(wire.ContentDigestOption(d))
	h.AddOption(wire.ChunkChecksumOption())
	srv := &Server{cfg: Config{Cache: c}}
	tap := srv.cacheTap(h)
	var framed bytes.Buffer
	wire.NewFrameWriter(&framed).Write(payload[:2000])
	// One complete frame plus the torn start of the next.
	if err := feed(tap, append(framed.Bytes(), 0, 0), 1<<20); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn session ended with %v", err)
	}
	tap.commit(false)
	want := wire.ByteRange{Off: 0, Len: 2000}
	if got := c.Ranges(d); len(got) != 1 || got[0] != want {
		t.Fatalf("framed prefix not committed: %v", got)
	}
}

// TestCacheTapOversizedObjectSkipped: an object that can never fit the
// cache gets no tap at all, so forwarding pays no buffering for it.
func TestCacheTapOversizedObjectSkipped(t *testing.T) {
	c := testCache(t, 1024)
	d := wire.ContentDigest{Size: 1 << 20}
	h := &wire.Header{Version: wire.Version1, Type: wire.TypeData}
	h.AddOption(wire.ContentDigestOption(d))
	srv := &Server{cfg: Config{Cache: c}}
	if tap := srv.cacheTap(h); tap != nil {
		t.Fatal("oversized object got a population tap")
	}
}

// TestSpoolReindexDropCounting (satellite): a restart over a spool
// directory holding a torn .tmp write and a damaged .p file must count
// both drops, expose them via the metric, and log one summary line.
func TestSpoolReindexDropCounting(t *testing.T) {
	dir := t.TempDir()
	s := spoolStore(t, 4, 1<<20, dir)
	good := wire.SessionID{1}
	s.put(good, []byte("keep"))
	s.put(wire.SessionID{2}, []byte("warm")) // overflows: good spills to disk
	if _, spilled, _, _ := s.spoolUsage(); spilled != 1 {
		t.Fatalf("setup: spilled = %d, want 1", spilled)
	}
	// A torn write and a damaged payload alongside the good file.
	if err := os.WriteFile(filepath.Join(dir, "torn.p.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	bogus := sha256.Sum256([]byte("what the name claims"))
	damagedName := hex.EncodeToString(bogus[:]) + "." + wire.SessionID{9}.String() + ".p"
	if err := os.WriteFile(filepath.Join(dir, damagedName), []byte("not those bytes"), 0o644); err != nil {
		t.Fatal(err)
	}

	var logged []string
	reg := obs.NewRegistry()
	srv, err := New(Config{
		Self: epB, Dial: lsl.DialerFunc(nil),
		SpoolDir: dir, StoreBytes: 4, SpoolBytes: 1 << 20,
		Metrics: reg,
		Logf:    func(format string, args ...any) { logged = append(logged, format) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.store.spoolReindexDropped(); got != 2 {
		t.Fatalf("reindex dropped = %d, want 2", got)
	}
	if got := reg.Counter(MetricSpoolReindexDropped).Value(); got != 2 {
		t.Fatalf("metric %s = %d, want 2", MetricSpoolReindexDropped, got)
	}
	if len(logged) != 1 {
		t.Fatalf("summary log lines = %d, want 1", len(logged))
	}
	// The good payload survived re-indexing.
	if data, ok := srv.store.get(good); !ok || string(data) != "keep" {
		t.Fatalf("good spooled payload lost: %q, %v", data, ok)
	}
}

// TestSpoolReindexUnderFullSpool (satellite): restarting with a spool
// budget smaller than what the directory holds must evict during
// re-index — the oldest payload goes, the budget holds, and the evicted
// file is deleted from disk, not just from the index.
func TestSpoolReindexUnderFullSpool(t *testing.T) {
	dir := t.TempDir()
	s := spoolStore(t, 8, 1<<20, dir)
	older, newer, third := wire.SessionID{1}, wire.SessionID{2}, wire.SessionID{3}
	s.put(older, []byte("old-old"))
	s.put(newer, []byte("new-new")) // spills older
	s.put(third, []byte("mem-mem")) // spills newer
	if diskBytes, spilled, _, _ := s.spoolUsage(); diskBytes != 14 || spilled != 2 {
		t.Fatalf("setup: disk bytes = %d, spilled = %d", diskBytes, spilled)
	}
	// Age the older file so recovery's oldest-first ordering is stable
	// regardless of filesystem timestamp granularity.
	for _, de := range mustReadDir(t, dir) {
		if _, id, ok := parseSpoolName(de.Name()); ok && id == older {
			past := time.Now().Add(-time.Hour)
			if err := os.Chtimes(filepath.Join(dir, de.Name()), past, past); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Restart with a spool budget that fits only one payload.
	s2 := spoolStore(t, 8, 10, dir)
	if _, ok := s2.get(newer); !ok {
		t.Fatal("re-index under budget lost the newest payload")
	}
	if _, ok := s2.get(older); ok {
		t.Fatal("re-index under budget kept the oldest payload over a newer one")
	}
	if diskBytes, _, recovered, _ := s2.spoolUsage(); diskBytes > 10 || recovered != 2 {
		t.Fatalf("after re-index: disk bytes = %d (budget 10), recovered = %d", diskBytes, recovered)
	}
	remaining := 0
	for _, de := range mustReadDir(t, dir) {
		if _, _, ok := parseSpoolName(de.Name()); ok {
			remaining++
		}
	}
	if remaining != 1 {
		t.Fatalf("spool files after re-index eviction = %d, want 1", remaining)
	}
}

// TestSpoolReindexDamagedBesideValidSameDigest (satellite): a damaged
// .p file whose name carries the same digest as a valid file (distinct
// session ids) must be dropped while the valid one is re-indexed.
func TestSpoolReindexDamagedBesideValidSameDigest(t *testing.T) {
	dir := t.TempDir()
	payload := []byte("shared-digest-payload")
	sum := sha256.Sum256(payload)
	validName := hex.EncodeToString(sum[:]) + "." + wire.SessionID{1}.String() + ".p"
	damagedName := hex.EncodeToString(sum[:]) + "." + wire.SessionID{2}.String() + ".p"
	if err := os.WriteFile(filepath.Join(dir, validName), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, damagedName), []byte("corrupted body!!!"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := spoolStore(t, 64, 1<<20, dir)
	if got := s.spoolReindexDropped(); got != 1 {
		t.Fatalf("reindex dropped = %d, want 1", got)
	}
	if data, ok := s.get(wire.SessionID{1}); !ok || !bytes.Equal(data, payload) {
		t.Fatalf("valid same-digest payload lost: got %v", ok)
	}
	if _, ok := s.get(wire.SessionID{2}); ok {
		t.Fatal("damaged same-digest payload resurrected")
	}
}

func mustReadDir(t *testing.T, dir string) []os.DirEntry {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return des
}
