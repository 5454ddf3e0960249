package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/netlogistics/lsl/internal/cache"
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// Cache-offload metric names reported into Config.Metrics by
// TransferCached.
const (
	// MetricCacheServedBytes counts payload bytes delivered out of depot
	// caches instead of re-sent by the origin.
	MetricCacheServedBytes = "core_cache_served_bytes_total"
	// MetricCacheFallbacks counts cached transfers that had to fall back
	// to an origin send after a serve directive failed partway.
	MetricCacheFallbacks = "core_cache_fallbacks_total"
)

// CachedResult extends TransferResult with the cache-offload split: how
// many payload bytes the origin actually sent versus how many a depot
// cache served, and which depot served them.
type CachedResult struct {
	TransferResult
	// OriginBytes is the payload the origin sent (cold prefix plus any
	// fallback re-sends). Zero on a full cache hit.
	OriginBytes int64
	// CachedBytes is the payload a depot cache served.
	CachedBytes int64
	// Holder names the serving depot's host; empty when the transfer ran
	// entirely from the origin.
	Holder string
}

// TransferCached moves one content-addressed object from srcHost to
// dstHost, serving as much of it as possible from the cache of one
// depot on the planned path. The object is identified by id: its
// payload is the deterministic session pattern of id over size bytes,
// so its content digest — the cache key every depot tracks — is
// computable up front and stable across repeat transfers.
//
// The planner names the one relay that may cache the object (cacheAt):
// every session of the transfer lets only that depot admit it, and only
// that depot is probed. The probe's longest cached suffix decides the
// split. Any cold prefix the cache cannot supply is sent by the origin
// first (the sink's end-to-end digest is order-sensitive), then the
// holder is directed to serve the remainder out of its cache. A serve
// that dies partway — a tampered cache span fails its CRC on read, for
// instance — falls back to an origin re-send resuming at the sink's
// acked offset, so cache corruption costs throughput, never
// correctness: the sink's whole-object digest check stands regardless
// of who supplied which range.
//
// A transfer with no holder is an ordinary reliable send that, as a
// side effect, populates the named depot's cache — that is what makes
// the next TransferCached of the same object warm.
func (s *System) TransferCached(srcHost, dstHost string, id wire.SessionID, size int64, pol RecoveryPolicy) (CachedResult, error) {
	if size <= 0 {
		return CachedResult{}, fmt.Errorf("core: transfer size %d must be positive", size)
	}
	path, err := s.routeOrDirect(srcHost, dstHost)
	if err != nil {
		return CachedResult{}, err
	}
	si, di := path[0], path[len(path)-1]
	digest := depot.PatternDigest(id, size)
	o := Object{ID: id, Trace: mintTrace(), Dst: s.endpoints[di], Size: size}
	defer s.sink.Retire(id, o.Trace)
	start := time.Now()
	off, err := s.engine(si, di).Cached(s.ctx, o, digest, Route{Via: s.route(path)}, s.cacheAt(path), pol)
	out := CachedResult{OriginBytes: off.Origin, CachedBytes: off.Cached}
	if off.Holder >= 0 {
		out.Holder = s.Topo.Hosts[path[off.Holder+1]].Name
	}
	out.TransferResult, err = s.observed(s.result(size, time.Since(start), path), err)
	return out, err
}

// cacheAt returns which of path's relays (an index into its interior)
// a cached transfer over path lets cache the object, or -1 for none:
// the relay whose bottleneck to the destination beats the whole
// route's by more than the planner's ε, the later one on a tie. The
// minimax principle says a chain runs at its slowest sublink, so a copy
// upstream of that sublink cannot speed a repeat transfer. A relay's
// bottleneck to the destination only falls along the path, so the last
// relay is the one candidate.
func (s *System) cacheAt(path []int) int {
	last := len(path) - 3
	if last < 0 || s.Planner.EffectiveCost(path, map[int]bool{path[last+1]: true}, 0) >= (1-s.Planner.Epsilon)*s.Planner.EffectiveCost(path, nil, 1) {
		return -1
	}
	return last
}

// Offload is a cached transfer's split: the payload the origin sent and
// the payload a depot cache served, and which of the route's Via depots
// served it (-1 for none).
type Offload struct {
	Origin, Cached int64
	Holder         int
}

// Cached moves the object over route, with as much of it as possible
// served from the cache of route.Via[at] (see System.TransferCached):
// the one depot its sessions let cache the object, and the one probed
// for it; at -1 lets none cache it and probes none. Every session
// carries the chunk framing and digest, the object's content digest,
// which is also the cache key. The route stays fixed, without
// failover: the holder is an index into it.
func (e *Engine) Cached(ctx context.Context, o Object, digest wire.ContentDigest, route Route, at int, pol RecoveryPolicy) (Offload, error) {
	pol = pol.withDefaults()
	pol.Failover = false
	if !hasOption(o.Opts, wire.OptChunkChecksum) {
		o.Opts = append(o.Opts, wire.ChunkChecksumOption())
	}
	o.Opts = append(o.Opts, wire.ContentDigestOption(digest), noCache)
	out, coldEnd := Offload{Holder: -1}, o.Size
	if at >= 0 {
		o.Opts[len(o.Opts)-1] = wire.CacheAtOption(route.Via[at])
		// A probe that fails (no cache there, or unreachable) finds no holder.
		ranges, _ := lsl.CacheProbe(e.Dial, e.Src, route.Via[at], digest, time.Now().Add(pol.AttemptTimeout))
		if c := suffixStart(ranges, o.Size); c < o.Size {
			out.Holder, coldEnd = at, c
		}
	}
	r := e.start(ctx, o)

	var acked int64
	// Phase A: origin-send the cold prefix the cache cannot supply,
	// acked before any cache serve begins so that what the sink has
	// acked stays one prefix of the object.
	if coldEnd > 0 {
		got, err := r.sendRange(route, 0, coldEnd, pol)
		acked += got
		out.Origin += got
		if err != nil && acked < coldEnd {
			return out, err
		}
	}

	// Phase B: direct the holder to serve the remainder from its cache.
	if out.Holder >= 0 && acked < o.Size {
		got, err := r.serveFromCache(route.Via[out.Holder:], digest, wire.ByteRange{Off: acked, Len: o.Size - acked}, pol.AttemptTimeout)
		if err != nil {
			return out, err
		}
		acked += got
		out.Cached += got
		e.Metrics.Counter(MetricCacheServedBytes).Add(got)
		if acked < o.Size {
			// The serve came up short (refused, or a cached span failed
			// its CRC mid-read). Phase C re-sends the rest from the
			// origin.
			e.Metrics.Counter(MetricCacheFallbacks).Inc()
		}
	}

	// Phase C: whatever is still missing comes from the origin under the
	// normal retry schedule. A depot that still holds a good copy may
	// short-circuit this send from its own cache — that is offload too,
	// but it is counted as origin traffic here because the origin paid
	// to stream the bytes into the network again.
	if acked < o.Size {
		got, err := r.sendRange(route, acked, o.Size, pol)
		acked += got
		out.Origin += got
		if err != nil && acked < o.Size {
			return out, fmt.Errorf("core: cached transfer delivered %d of %d bytes: %w", acked, o.Size, err)
		}
	}
	return out, r.verdict(pol.AttemptTimeout)
}

// hasOption reports whether opts carries an option of kind.
func hasOption(opts []wire.Option, kind uint16) bool {
	return slices.ContainsFunc(opts, func(o wire.Option) bool { return o.Kind == kind })
}

// suffixStart returns the first byte of the contiguous cached suffix
// ending exactly at size, or size when the cache holds no such suffix.
// Advertised ranges are canonical (sorted, coalesced, non-overlapping),
// so only the last range can carry the suffix.
func suffixStart(ranges []wire.ByteRange, size int64) int64 {
	if n := len(ranges); n > 0 && ranges[n-1].End() == size {
		return ranges[n-1].Off
	}
	return size
}

// sendRange streams the object's [from, to) range from the origin
// under the retry schedule, returning the bytes the sink verified. The
// range end is private to the sender — the wire header carries only
// the resume offset — so partial sends and retries compose exactly as
// in TransferReliable.
func (r *run) sendRange(route Route, from, to int64, pol RecoveryPolicy) (int64, error) {
	acked, err := r.drive(r.leg(from, to), &sharedRoute{route: route}, pol, MetricRetryAttempts, r.attempt)
	return acked - from, err
}

// serveFromCache sends the serve directive to the holding depot, the
// first of via, and awaits the sink's report of the session it serves,
// returning the bytes the cache delivered. Failures are soft — a
// refusal, a partial serve, or silence just leave bytes for the origin
// fallback to send — except a digest mismatch, which no re-send of
// the rest can repair.
func (r *run) serveFromCache(via []wire.Endpoint, digest wire.ContentDigest, rg wire.ByteRange, timeout time.Duration) (int64, error) {
	// The directive's source route runs from the holder along the rest
	// of the route: the holder pushes cached bytes down exactly the hops
	// the origin stream would have taken from there.
	sess, err := lsl.Start(lsl.TimeoutDialer(r.Dial, timeout), lsl.Spec{
		Type:    wire.TypeCacheServe,
		ID:      r.obj.ID,
		Src:     r.Src,
		Dst:     r.obj.Dst,
		Route:   via,
		Options: append([]wire.Option{wire.CacheServeOption(digest, rg)}, r.opts...),
	})
	if err != nil {
		return 0, nil
	}
	defer sess.Close()
	r.emit(r.obj.ID, obs.KindConnect, obs.Event{
		Peer:   via[0].String(),
		Detail: fmt.Sprintf("cache serve [%d,%d)", rg.Off, rg.End()),
	})
	ctx, cancel := context.WithTimeout(r.ctx, timeout)
	defer cancel()
	// A holder that cannot satisfy the directive answers with a refusal
	// on this connection; a successful serve sends nothing back.
	go func() {
		if h, rerr := wire.ReadHeader(sess); rerr == nil && h.Type == wire.TypeRefuse {
			cancel()
		}
	}()
	res, err := r.await(ctx, depot.Query{ID: r.obj.ID, Trace: r.obj.Trace, Offset: rg.Off})
	switch {
	case err != nil:
		return 0, nil
	case errors.Is(res.Err, wire.ErrDigest):
		return 0, fmt.Errorf("core: sink: %w", res.Err)
	}
	return max(res.Offset+res.Bytes-rg.Off, 0), nil
}

// DepotCache returns the named host's depot cache, or nil when the
// system runs without caches. Experiments use it to inspect — and
// tamper with — cached state deterministically.
func (s *System) DepotCache(host string) *cache.Cache {
	i, err := s.resolve(host)
	if err != nil || i >= len(s.caches) {
		return nil
	}
	return s.caches[i]
}
