package core

import (
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// cachedSystem is chainSystem with a depot cache on every host.
func cachedSystem(t *testing.T, reg *obs.Registry) (*System, *obs.MemorySink) {
	t.Helper()
	mem := &obs.MemorySink{}
	sys, err := NewSystem(chainTopology(t), Config{
		TimeScale:  0.0005,
		Seed:       1,
		Metrics:    reg,
		Trace:      mem,
		CacheBytes: 64 << 20,
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

// TestCachedColdThenWarm is the subsystem's core scenario: the first
// transfer of an object runs entirely from the origin and populates
// every relay cache it traverses; the repeat transfer of the same
// object is served out of the cache nearest the destination with zero
// origin bytes.
func TestCachedColdThenWarm(t *testing.T) {
	reg := obs.NewRegistry()
	sys, mem := cachedSystem(t, reg)

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

	// The cold run's forwarded traffic must have populated both relays.
	digest := depot.PatternDigest(id, size)
	for _, host := range []string{"relay-a", "relay-b"} {
		c := sys.DepotCache(host)
		if c == nil {
			t.Fatalf("DepotCache(%s) = nil", host)
		}
		if rs := c.Ranges(digest); len(rs) != 1 || rs[0] != (wire.ByteRange{Off: 0, Len: size}) {
			t.Fatalf("%s cache does not hold the object after the cold run", host)
		}
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
	// Both relays hold the whole object; the tie must go to the one
	// nearer the destination.
	if warm.Holder != "relay-b" {
		t.Fatalf("warm holder = %q, want relay-b", warm.Holder)
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

// TestCachedPartialSuffixSplice: when a relay caches only a suffix of
// the object, the transfer must splice — origin sends exactly the cold
// prefix, the holder serves the cached suffix — and the sink's
// end-to-end digest must still verify across the seam.
func TestCachedPartialSuffixSplice(t *testing.T) {
	reg := obs.NewRegistry()
	sys, _ := cachedSystem(t, reg)

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
	sys, _ := cachedSystem(t, reg)

	id, err := wire.NewSessionID()
	if err != nil {
		t.Fatal(err)
	}
	const size = 256 << 10
	if _, err := sys.TransferCached("src", "dst", id, size, cachedPolicy()); err != nil {
		t.Fatalf("cold transfer: %v", err)
	}

	digest := depot.PatternDigest(id, size)
	// Both relays cached the object on the cold run; tamper both so the
	// warm run cannot be rescued by the second cache.
	for _, host := range []string{"relay-a", "relay-b"} {
		if !sys.DepotCache(host).Tamper(digest, 0) {
			t.Fatalf("Tamper found nothing to corrupt on %s", host)
		}
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
