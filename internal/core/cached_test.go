package core

import (
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/simtime"
	"github.com/netlogistics/lsl/internal/topo"
	"github.com/netlogistics/lsl/internal/wire"
)

// risingChainTopology is the cache testbed: the minimax route src→dst
// runs through relay-a then relay-b, and its bandwidth rises toward the
// destination (20, 50, 100 Mbit/s), so a copy at relay-b skips the
// route's bottleneck and one at relay-a would not. Every other pair is
// a trickle, so the planner always picks the chain.
func risingChainTopology(t *testing.T) *topo.Topology {
	t.Helper()
	const (
		mbit = 1e6 / 8
		buf  = int64(8 << 20)
	)
	hosts := []topo.Host{
		{Name: "src", Site: "src", SndBuf: buf, RcvBuf: buf},
		{Name: "relay-a", Site: "a", SndBuf: buf, RcvBuf: buf,
			Depot: true, ForwardRate: 60e6, PipelineBytes: 256 << 10},
		{Name: "relay-b", Site: "b", SndBuf: buf, RcvBuf: buf,
			Depot: true, ForwardRate: 60e6, PipelineBytes: 256 << 10},
		{Name: "dst", Site: "dst", SndBuf: buf, RcvBuf: buf},
	}
	tp, err := topo.New("rising-chain", hosts)
	if err != nil {
		t.Fatal(err)
	}
	set := func(a, b string, capMbit float64) {
		tp.SetLink(tp.MustHost(a), tp.MustHost(b), topo.Link{RTT: simtime.Milliseconds(10), Capacity: capMbit * mbit})
	}
	set("src", "relay-a", 20)
	set("relay-a", "relay-b", 50)
	set("relay-b", "dst", 100)
	set("src", "dst", 2)
	set("src", "relay-b", 4)
	set("relay-a", "dst", 4)
	return tp
}

// cachedSystem runs tp with a depot cache on every host; integrity
// puts a content digest on every transfer's sessions.
func cachedSystem(t *testing.T, tp *topo.Topology, reg *obs.Registry, integrity bool) (*System, *obs.MemorySink) {
	t.Helper()
	mem := &obs.MemorySink{}
	sys, err := NewSystem(tp, Config{
		TimeScale:  0.0005,
		Seed:       1,
		Metrics:    reg,
		Trace:      mem,
		CacheBytes: 64 << 20,
		Integrity:  integrity,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys, mem
}

func cachedPolicy() RecoveryPolicy {
	return RecoveryPolicy{Retry: fastPolicy(4), AttemptTimeout: 3 * time.Second}
}

// probes counts the cache probes the trace shows: a depot accepts a
// probe under no trace id, while every session a System transfer opens
// carries its transfer's.
func probes(mem *obs.MemorySink) int {
	n := 0
	for _, e := range mem.Events() {
		if e.Kind == obs.KindAccept && e.Hop > 0 && e.Trace == "" {
			n++
		}
	}
	return n
}

// assertHolders fails unless exactly the named hosts' caches hold the
// whole object.
func assertHolders(t *testing.T, sys *System, digest wire.ContentDigest, holders ...string) {
	t.Helper()
	for _, h := range sys.Topo.Hosts {
		rs := sys.DepotCache(h.Name).Ranges(digest)
		held := len(rs) == 1 && rs[0] == (wire.ByteRange{Off: 0, Len: digest.Size})
		want := false
		for _, name := range holders {
			want = want || name == h.Name
		}
		if held != want || !held && len(rs) > 0 {
			t.Fatalf("%s cache holds %v of the object, want whole: %v", h.Name, rs, want)
		}
	}
}

// TestCachedColdThenWarm is the subsystem's core scenario: the first
// transfer of an object runs entirely from the origin and populates the
// cache of the one relay the planner names, relay-b, past the route's
// bottleneck; the repeat transfer of the same object is served out of
// it with zero origin bytes. Each transfer probes that one depot once.
func TestCachedColdThenWarm(t *testing.T) {
	reg := obs.NewRegistry()
	sys, mem := cachedSystem(t, risingChainTopology(t), reg, false)

	id, err := wire.NewSessionID()
	if err != nil {
		t.Fatal(err)
	}
	const size = 256 << 10

	cold, err := sys.TransferCached("src", "dst", id, size, cachedPolicy())
	if err != nil {
		t.Fatalf("cold transfer: %v", err)
	}
	if cold.Bytes != size || cold.OriginBytes != size || cold.CachedBytes != 0 {
		t.Fatalf("cold = bytes %d origin %d cached %d, want all-origin %d",
			cold.Bytes, cold.OriginBytes, cold.CachedBytes, int64(size))
	}
	if cold.Holder != "" {
		t.Fatalf("cold run found holder %q before anything was cached", cold.Holder)
	}
	assertPath(t, cold.Path, "src", "relay-a", "relay-b", "dst")

	// The cold run's forwarded traffic populated relay-b's cache alone.
	digest := depot.PatternDigest(id, size)
	assertHolders(t, sys, digest, "relay-b")
	if n := probes(mem); n != 1 {
		t.Fatalf("cold run made %d cache probes, want 1", n)
	}

	warm, err := sys.TransferCached("src", "dst", id, size, cachedPolicy())
	if err != nil {
		t.Fatalf("warm transfer: %v", err)
	}
	if warm.Bytes != size {
		t.Fatalf("warm bytes = %d, want %d", warm.Bytes, size)
	}
	if warm.OriginBytes != 0 {
		t.Fatalf("warm origin bytes = %d, want 0 (full cache hit)", warm.OriginBytes)
	}
	if warm.CachedBytes != size {
		t.Fatalf("warm cached bytes = %d, want %d", warm.CachedBytes, size)
	}
	if warm.Holder != "relay-b" {
		t.Fatalf("warm holder = %q, want relay-b", warm.Holder)
	}
	if n := probes(mem); n != 2 {
		t.Fatalf("cold and warm runs made %d cache probes, want 2", n)
	}
	if v := reg.Counter(MetricCacheServedBytes).Value(); v != size {
		t.Fatalf("%s = %d, want %d", MetricCacheServedBytes, v, int64(size))
	}
	if v := reg.Counter(MetricCacheFallbacks).Value(); v != 0 {
		t.Fatalf("%s = %d, want 0", MetricCacheFallbacks, v)
	}

	var sawHit bool
	for _, e := range mem.Events() {
		if e.Kind == obs.KindCacheHit {
			sawHit = true
		}
	}
	if !sawHit {
		t.Fatal("trace has no cache-hit event from the warm run")
	}
}

// TestCachedNamesNoDepotUpstreamOfTheBottleneck: on TwoPath the
// bottleneck is the last sublink, downstream of every relay, so no
// cached copy could speed a repeat. A planned, a multipath and two
// cached transfers of one object leave every depot cache empty, and the
// cached ones probe nothing.
func TestCachedNamesNoDepotUpstreamOfTheBottleneck(t *testing.T) {
	sys, mem := cachedSystem(t, topo.TwoPath(), obs.NewRegistry(), true)
	id, err := wire.NewSessionID()
	if err != nil {
		t.Fatal(err)
	}
	const size = 256 << 10
	if _, err := sys.Transfer(topo.UCSB, topo.UIUC, size); err != nil {
		t.Fatalf("planned transfer: %v", err)
	}
	if _, err := sys.TransferMultipath(topo.UCSB, topo.UIUC, size, 2, cachedPolicy()); err != nil {
		t.Fatalf("multipath transfer: %v", err)
	}
	for run := range 2 {
		res, err := sys.TransferCached(topo.UCSB, topo.UIUC, id, size, cachedPolicy())
		if err != nil {
			t.Fatalf("cached transfer %d: %v", run, err)
		}
		if res.OriginBytes != size || res.Holder != "" {
			t.Fatalf("cached transfer %d = origin %d holder %q, want all-origin", run, res.OriginBytes, res.Holder)
		}
	}
	for _, h := range sys.Topo.Hosts {
		if keys := sys.DepotCache(h.Name).Keys(); len(keys) != 0 {
			t.Fatalf("%s cache holds %d objects, want none", h.Name, len(keys))
		}
	}
	if n := probes(mem); n != 0 {
		t.Fatalf("cached transfers made %d cache probes, want 0", n)
	}
}

// TestCachedPartialSuffixSplice: when a relay caches only a suffix of
// the object, the transfer must splice — origin sends exactly the cold
// prefix, the holder serves the cached suffix — and the sink's
// end-to-end digest must still verify across the seam.
func TestCachedPartialSuffixSplice(t *testing.T) {
	reg := obs.NewRegistry()
	sys, _ := cachedSystem(t, risingChainTopology(t), reg, false)

	id, err := wire.NewSessionID()
	if err != nil {
		t.Fatal(err)
	}
	const (
		size = 256 << 10
		half = size / 2
	)
	digest := depot.PatternDigest(id, size)
	suffix := make([]byte, size-half)
	depot.FillPattern(suffix, id, half)
	if err := sys.DepotCache("relay-b").Put(digest, half, suffix); err != nil {
		t.Fatal(err)
	}

	res, err := sys.TransferCached("src", "dst", id, size, cachedPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != size {
		t.Fatalf("bytes = %d, want %d", res.Bytes, size)
	}
	if res.Holder != "relay-b" {
		t.Fatalf("holder = %q, want relay-b", res.Holder)
	}
	if res.OriginBytes != half {
		t.Fatalf("origin bytes = %d, want the %d-byte cold prefix", res.OriginBytes, int64(half))
	}
	if res.CachedBytes != size-half {
		t.Fatalf("cached bytes = %d, want the %d-byte suffix", res.CachedBytes, int64(size-half))
	}
	if v := reg.Counter(MetricDigestMismatches).Value(); v != 0 {
		t.Fatalf("%s = %d, want 0", MetricDigestMismatches, v)
	}
}

// TestCachedTamperFallsBackToOrigin: a tampered cache span fails its
// CRC when the holder reads it back, so the serve dies; the transfer
// must complete anyway from the origin, and the sink's whole-object
// digest must verify — corruption in a cache costs throughput, never
// correctness.
func TestCachedTamperFallsBackToOrigin(t *testing.T) {
	reg := obs.NewRegistry()
	sys, _ := cachedSystem(t, risingChainTopology(t), reg, false)

	id, err := wire.NewSessionID()
	if err != nil {
		t.Fatal(err)
	}
	const size = 256 << 10
	if _, err := sys.TransferCached("src", "dst", id, size, cachedPolicy()); err != nil {
		t.Fatalf("cold transfer: %v", err)
	}

	digest := depot.PatternDigest(id, size)
	// The cold run cached the object at relay-b alone: tampering with
	// the one holder leaves no cache to rescue the warm run.
	if !sys.DepotCache("relay-b").Tamper(digest, 0) {
		t.Fatal("Tamper found nothing to corrupt on relay-b")
	}
	if rs := sys.DepotCache("relay-a").Ranges(digest); len(rs) != 0 {
		t.Fatalf("relay-a caches %v of the object, want nothing", rs)
	}

	warm, err := sys.TransferCached("src", "dst", id, size, cachedPolicy())
	if err != nil {
		t.Fatalf("warm transfer after tamper: %v", err)
	}
	if warm.Bytes != size {
		t.Fatalf("bytes = %d, want %d", warm.Bytes, size)
	}
	if warm.OriginBytes == 0 {
		t.Fatal("tampered caches served the object without any origin fallback")
	}
	if v := reg.Counter(MetricCacheFallbacks).Value(); v < 1 {
		t.Fatalf("%s = %d, want >= 1", MetricCacheFallbacks, v)
	}
	// The delivered object verified end to end despite the detour.
	if v := reg.Counter(MetricDigestMismatches).Value(); v != 0 {
		t.Fatalf("%s = %d, want 0", MetricDigestMismatches, v)
	}
}

// TestCachedWithoutCachesDegradesToOrigin: on a system with no caches
// configured, TransferCached is just a reliable origin transfer — the
// probes are refused and ignored.
func TestCachedWithoutCachesDegradesToOrigin(t *testing.T) {
	reg := obs.NewRegistry()
	sys, _ := chainSystem(t, reg, nil)

	id, err := wire.NewSessionID()
	if err != nil {
		t.Fatal(err)
	}
	const size = 128 << 10
	res, err := sys.TransferCached("src", "dst", id, size, cachedPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != size || res.OriginBytes != size || res.CachedBytes != 0 {
		t.Fatalf("result = bytes %d origin %d cached %d, want all-origin %d",
			res.Bytes, res.OriginBytes, res.CachedBytes, int64(size))
	}
	if res.Holder != "" {
		t.Fatalf("holder = %q on a cacheless system", res.Holder)
	}
	if sys.DepotCache("relay-a") != nil {
		t.Fatal("DepotCache returned a cache on a cacheless system")
	}
}

func TestSuffixStart(t *testing.T) {
	cases := []struct {
		name   string
		ranges []wire.ByteRange
		size   int64
		want   int64
	}{
		{"empty", nil, 100, 100},
		{"full", []wire.ByteRange{{Off: 0, Len: 100}}, 100, 0},
		{"suffix", []wire.ByteRange{{Off: 40, Len: 60}}, 100, 40},
		{"prefix only", []wire.ByteRange{{Off: 0, Len: 60}}, 100, 100},
		{"hole before suffix", []wire.ByteRange{{Off: 0, Len: 10}, {Off: 50, Len: 50}}, 100, 50},
		{"interior", []wire.ByteRange{{Off: 10, Len: 50}}, 100, 100},
	}
	for _, tc := range cases {
		if got := suffixStart(tc.ranges, tc.size); got != tc.want {
			t.Errorf("%s: suffixStart = %d, want %d", tc.name, got, tc.want)
		}
	}
}
