package core

import (
	"fmt"
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
// dstHost, serving as much of it as possible from depot caches along
// the planned path. The object is identified by id: its payload is the
// deterministic session pattern of id over size bytes, so its content
// digest — the cache key every depot tracks — is computable up front
// and stable across repeat transfers.
//
// The transfer runs in phases. The path's relay depots are probed for
// the digest; the holder covering the longest suffix of the object
// wins. Any cold prefix the cache cannot supply is sent by the origin
// first (the sink's end-to-end digest is order-sensitive), then the
// holder is directed to serve the remainder out of its cache. A serve
// that dies partway — a tampered cache span fails its CRC on read, for
// instance — falls back to an origin re-send resuming at the sink's
// acked offset, so cache corruption costs throughput, never
// correctness: the sink's whole-object digest check stands regardless
// of who supplied which range.
//
// A transfer with no holder is an ordinary reliable send that, as a
// side effect, populates the caches of every depot it traverses —
// that is what makes the next TransferCached of the same object warm.
func (s *System) TransferCached(srcHost, dstHost string, id wire.SessionID, size int64, pol RecoveryPolicy) (CachedResult, error) {
	if size <= 0 {
		return CachedResult{}, fmt.Errorf("core: transfer size %d must be positive", size)
	}
	pol = pol.withDefaults()
	path, err := s.routeOrDirect(srcHost, dstHost)
	if err != nil {
		return CachedResult{}, err
	}
	si := path[0]

	digest := depot.PatternDigest(id, size)
	// Cached transfers always travel with integrity stamps: the chunk
	// framing is what lets depots trust (and cache) forwarded bytes, and
	// the content digest is the cache key itself.
	tid := mintTrace()
	opts := append(traceOpt(tid), integrityOptions(digest)...)
	defer s.sink.Retire(id, tid)
	// The path stays fixed, without failover: the holder is an index
	// into it.
	pol.Failover = false
	start := time.Now()

	holder, coldEnd := s.bestHolder(si, path, digest, pol.AttemptTimeout)
	out := CachedResult{}
	if holder > 0 {
		out.Holder = s.Topo.Hosts[path[holder]].Name
	}

	var acked int64
	// Phase A: origin-send the cold prefix the cache cannot supply,
	// acked before any cache serve begins so that what the sink has
	// acked stays one prefix of the object.
	if coldEnd > 0 {
		got, aerr := s.sendRange(path, id, 0, coldEnd, pol, tid, opts)
		acked += got
		out.OriginBytes += got
		if aerr != nil && acked < coldEnd {
			s.observeTransfer(TransferResult{}, aerr)
			return out, aerr
		}
	}

	// Phase B: direct the holder to serve the remainder from its cache.
	if holder > 0 && acked < size {
		r := wire.ByteRange{Off: acked, Len: size - acked}
		got := s.serveFromCache(si, path, holder, id, digest, r, pol.AttemptTimeout, tid, opts)
		acked += got
		out.CachedBytes += got
		s.cfg.Metrics.Counter(MetricCacheServedBytes).Add(got)
		if acked < size {
			// The serve came up short (refused, or a cached span failed
			// its CRC mid-read). Phase C re-sends the rest from the
			// origin.
			s.cfg.Metrics.Counter(MetricCacheFallbacks).Inc()
		}
	}

	// Phase C: whatever is still missing comes from the origin under the
	// normal retry schedule. A depot that still holds a good copy may
	// short-circuit this send from its own cache — that is offload too,
	// but it is counted as origin traffic here because the origin paid
	// to stream the bytes into the network again.
	if acked < size {
		got, aerr := s.sendRange(path, id, acked, size, pol, tid, opts)
		acked += got
		out.OriginBytes += got
		if aerr != nil && acked < size {
			err := fmt.Errorf("core: cached transfer delivered %d of %d bytes: %w", acked, size, aerr)
			s.observeTransfer(TransferResult{}, err)
			return out, err
		}
	}
	out.TransferResult = s.result(size, time.Since(start), path)
	s.observeTransfer(out.TransferResult, nil)
	return out, nil
}

// bestHolder probes the path's relay depots for the digest and returns
// the path index of the depot whose cache covers the longest suffix of
// the object, plus the first byte that suffix starts at (the cold
// prefix boundary). A zero holder index means no usable holder; a
// coldEnd of 0 means a full-object hit. Each probe ends by timeout.
func (s *System) bestHolder(si int, path []int, digest wire.ContentDigest, timeout time.Duration) (holder int, coldEnd int64) {
	coldEnd = digest.Size
	dial := s.dialerFor(si)
	for i := 1; i < len(path)-1; i++ {
		ranges, err := lsl.CacheProbe(dial, s.endpoints[si], s.endpoints[path[i]], digest, time.Now().Add(timeout))
		if err != nil {
			continue // no cache there, or unreachable: not a holder
		}
		c := suffixStart(ranges, digest.Size)
		// Prefer the longest suffix; on ties the later depot wins — it
		// is nearer the destination, so more hops are offloaded.
		if c < digest.Size && c <= coldEnd {
			holder, coldEnd = i, c
		}
	}
	if holder == 0 {
		coldEnd = digest.Size
	}
	return holder, coldEnd
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
func (s *System) sendRange(path []int, id wire.SessionID, from, to int64, pol RecoveryPolicy, tid wire.TraceID, opts []wire.Option) (int64, error) {
	l := leg{id: id, from: from, to: to, tid: tid, opts: opts}
	acked, err := s.drive(l, &stripePath{path: path}, pol, MetricRetryAttempts, s.attempt)
	return acked - from, err
}

// serveFromCache sends the serve directive to the holding depot and
// waits for the sink's report, returning the bytes the cache actually
// delivered. Failures are soft: a refusal, a partial serve, or silence
// all just leave bytes for the origin fallback to send.
func (s *System) serveFromCache(si int, path []int, holder int, id wire.SessionID, digest wire.ContentDigest, r wire.ByteRange, timeout time.Duration, tid wire.TraceID, opts []wire.Option) int64 {
	// The directive's route runs from the holder along the rest of the
	// planned path; the holder pushes cached bytes down exactly the hops
	// the origin stream would have taken from there.
	// That is the source route of the sub-path beginning one hop before
	// the holder.
	sess, err := lsl.Start(lsl.TimeoutDialer(s.dialerFor(si), timeout), lsl.Spec{
		Type:    wire.TypeCacheServe,
		ID:      id,
		Src:     s.endpoints[si],
		Dst:     s.endpoints[path[len(path)-1]],
		Route:   s.route(path[holder-1:]),
		Options: append([]wire.Option{wire.CacheServeOption(digest, r)}, opts...),
	})
	if err != nil {
		return 0
	}
	defer sess.Close()
	ch := s.registerWaiter(id)
	defer s.dropWaiter(id)
	s.emitHop0(id, tid, si, obs.KindConnect, obs.Event{
		Peer:   s.endpoints[path[holder]].String(),
		Detail: fmt.Sprintf("cache serve [%d,%d)", r.Off, r.End()),
	})

	// A holder that cannot satisfy the directive answers with a refusal
	// on this connection; a successful serve sends nothing back.
	refused := make(chan struct{}, 1)
	go func() {
		if h, rerr := wire.ReadHeader(sess); rerr == nil && h.Type == wire.TypeRefuse {
			refused <- struct{}{}
		}
	}()

	progress := func(res depot.Report) int64 {
		if got := res.Offset + res.Bytes - r.Off; got > 0 {
			return got
		}
		return 0
	}
	select {
	case res := <-ch:
		return progress(res)
	case <-refused:
		return 0
	case <-time.After(timeout):
		return 0
	}
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
