package experiments

import (
	"fmt"

	"github.com/netlogistics/lsl/internal/cache"
	"github.com/netlogistics/lsl/internal/core"
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/topo"
	"github.com/netlogistics/lsl/internal/wire"
)

// CacheOffloadConfig parameterises the content-addressed cache
// acceptance sweep.
type CacheOffloadConfig struct {
	Seed int64
}

// The cache sweep's object size, emulation time compression, and
// per-depot cache capacity.
const (
	cacheOffloadSize       = 4 << 20
	cacheOffloadTimeScale  = 0.01
	cacheOffloadCacheBytes = 64 << 20
)

// CacheOffloadRow is one phase's outcome over the shared system: the
// cold population run, the warm repeat, and the repeat after the relay
// caches were tampered with.
type CacheOffloadRow struct {
	Phase       string  // cold | warm | tamper
	Bytes       int64   // bytes the sink verified
	OriginBytes int64   // payload the origin actually sent
	CachedBytes int64   // payload a depot cache served
	Holder      string  // serving depot ("" = all-origin)
	Mbps        float64 // end-to-end delivered bandwidth
	CacheHits   int64   // depot_cache_hits_total delta for this phase
	Fallbacks   int64   // core_cache_fallbacks_total delta for this phase
	Digest      int64   // core_digest_mismatches_total delta (must stay 0)
	Delivered   bool    // the full object arrived and verified
}

// cacheOffloadTopology is a three-hop chain whose bandwidth RISES
// toward the destination: src→relay-a is the 10 Mbit/s bottleneck,
// relay-a→relay-b runs at 40, relay-b→dst at 100. A warm transfer
// served from relay-b touches only the fast last hop, so the cache is
// worth a large factor — exactly the "move the bytes close, then serve
// them locally" argument of network logistics. Direct shortcuts are
// trickles so the planner always picks the chain.
func cacheOffloadTopology() (*topo.Topology, error) {
	const buf = int64(8 << 20)
	return wan("cacheoffload", []topo.Host{
		{Name: "src", Site: "src", SndBuf: buf, RcvBuf: buf},
		{Name: "relay-a", Site: "a", SndBuf: buf, RcvBuf: buf,
			Depot: true, ForwardRate: 60e6, PipelineBytes: 256 << 10},
		{Name: "relay-b", Site: "b", SndBuf: buf, RcvBuf: buf,
			Depot: true, ForwardRate: 60e6, PipelineBytes: 256 << 10},
		{Name: "dst", Site: "dst", SndBuf: buf, RcvBuf: buf},
	}, []wanLink{
		{"src", "relay-a", 10, 10},
		{"relay-a", "relay-b", 10, 40},
		{"relay-b", "dst", 10, 100},
		{"src", "dst", 10, 2},
		{"src", "relay-b", 10, 4},
		{"relay-a", "dst", 10, 4},
	})
}

// CacheOffload runs the cache acceptance sweep on ONE system, because
// the phases are causally chained: the cold transfer populates the
// relay caches, the warm repeat of the same object must be served
// almost entirely out of them (origin bytes zero, ≥2× the cold
// bandwidth on this rising-bandwidth chain), and after every cached
// copy is tampered with, the next repeat must detect the damage on
// read, fall back to the origin, and still deliver a digest-verified
// object.
func CacheOffload(cfg CacheOffloadConfig) ([]CacheOffloadRow, error) {
	tp, err := cacheOffloadTopology()
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	sys, err := core.NewSystem(tp, core.Config{
		TimeScale:  cacheOffloadTimeScale,
		Seed:       cfg.Seed,
		Metrics:    reg,
		Integrity:  true,
		CacheBytes: cacheOffloadCacheBytes,
	})
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	id, err := wire.NewSessionID()
	if err != nil {
		return nil, err
	}
	var rows []CacheOffloadRow
	run := func(phase string) error {
		hits0 := reg.Counter(cache.MetricHits).Value()
		falls0 := reg.Counter(core.MetricCacheFallbacks).Value()
		digest0 := reg.Counter(core.MetricDigestMismatches).Value()
		res, terr := sys.TransferCached("src", "dst", id, cacheOffloadSize, acceptancePolicy)
		rows = append(rows, CacheOffloadRow{
			Phase:       phase,
			Bytes:       res.Bytes,
			OriginBytes: res.OriginBytes,
			CachedBytes: res.CachedBytes,
			Holder:      res.Holder,
			Mbps:        res.Bandwidth * 8 / 1e6,
			CacheHits:   reg.Counter(cache.MetricHits).Value() - hits0,
			Fallbacks:   reg.Counter(core.MetricCacheFallbacks).Value() - falls0,
			Digest:      reg.Counter(core.MetricDigestMismatches).Value() - digest0,
			Delivered:   terr == nil && res.Bytes == cacheOffloadSize,
		})
		if terr != nil {
			return fmt.Errorf("experiments: cacheoffload %s: %w", phase, terr)
		}
		return nil
	}

	if err := run("cold"); err != nil {
		return rows, err
	}
	if err := run("warm"); err != nil {
		return rows, err
	}
	obj := depot.PatternDigest(id, cacheOffloadSize)
	for _, host := range []string{"relay-a", "relay-b"} {
		if c := sys.DepotCache(host); c != nil {
			c.Tamper(obj, 0)
		}
	}
	if err := run("tamper"); err != nil {
		return rows, err
	}
	return rows, nil
}

// cacheOffloadTable renders the sweep table plus a pass/fail verdict.
func cacheOffloadTable(rows []CacheOffloadRow) Table {
	t := Table{
		Title: "CacheOffload: repeat transfers served from depot caches, tamper falls back to origin",
		Columns: []Column{
			{"phase", "%-8s", "phase", "%s"},
			{"bytes", "%10d", "bytes", "%d"},
			{"origin_B", "%10d", "origin_bytes", "%d"},
			{"cached_B", "%10d", "cached_bytes", "%d"},
			{"holder", "%-10s", "holder", "%s"},
			{"Mbps", "%10.2f", "mbps", "%.4f"},
			{"hits", "%6d", "cache_hits", "%d"},
			{"fallbk", "%6d", "fallbacks", "%d"},
			{"digest", "%6d", "digest_mismatches", "%d"},
			{"delivered", "%10v", "delivered", "%t"},
		},
	}
	byPhase := make(map[string]CacheOffloadRow, len(rows))
	for _, r := range rows {
		holder := r.Holder
		if holder == "" {
			holder = "-"
		}
		t.Rows = append(t.Rows, []any{r.Phase, r.Bytes, r.OriginBytes, r.CachedBytes, holder,
			r.Mbps, r.CacheHits, r.Fallbacks, r.Digest, r.Delivered})
		byPhase[r.Phase] = r
	}
	cold, warm, tamper := byPhase["cold"], byPhase["warm"], byPhase["tamper"]
	ok := cold.Delivered && warm.Delivered && tamper.Delivered
	if cold.OriginBytes != cold.Bytes || cold.Holder != "" {
		ok = false // the cold run must come entirely from the origin
	}
	if warm.OriginBytes != 0 || warm.CachedBytes != warm.Bytes || warm.Holder == "" {
		ok = false // the warm run must be a full cache hit
	}
	if cold.Mbps > 0 && warm.Mbps < 2*cold.Mbps {
		ok = false
	}
	if tamper.OriginBytes == 0 || tamper.Fallbacks < 1 {
		ok = false // tampering must force an origin fallback
	}
	if cold.Digest+warm.Digest+tamper.Digest != 0 {
		ok = false // the sink's end-to-end digest must never mismatch
	}
	if cold.Mbps > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("warm speedup: %.2fx over cold", warm.Mbps/cold.Mbps))
	}
	if ok {
		t.Notes = append(t.Notes, "verdict: PASS — warm ≥2x cold with zero origin bytes, tamper recovered from origin")
	} else {
		t.Notes = append(t.Notes, "verdict: FAIL — see rows above")
	}
	return t
}
