package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// Striping metric names reported into Config.Metrics.
const (
	// MetricStripedTransfers counts completed striped transfers.
	MetricStripedTransfers = "core_striped_transfers_total"
	// MetricStripeRetries counts per-stripe retry attempts beyond the
	// first, across all striped transfers.
	MetricStripeRetries = "core_stripe_retries_total"
)

// ErrTooManyStripes rejects a stripe count the 16-bit stripe-count
// header field cannot carry.
var ErrTooManyStripes = errors.New("core: stripe count exceeds the 16-bit wire limit")

// stripeRange is one stripe's contiguous byte range [start, end) of the
// transferred object.
type stripeRange struct {
	start, end int64
}

// stripeRanges splits size bytes into n contiguous ranges whose lengths
// differ by at most one byte: the first size%n stripes carry the extra
// byte. n must satisfy 1 <= n <= size.
func stripeRanges(size int64, n int) []stripeRange {
	base := size / int64(n)
	rem := size % int64(n)
	out := make([]stripeRange, n)
	var off int64
	for k := range out {
		length := base
		if int64(k) < rem {
			length++
		}
		out[k] = stripeRange{start: off, end: off + length}
		off += length
	}
	return out
}

// TransferStriped moves size bytes from srcHost to dstHost over the
// planner's chosen path using the given number of parallel sublink
// chains ("stripes"). All stripes share one session identifier and one
// depot path; each stripe is an ordinary resumable data session
// carrying a contiguous byte range of the object, announced through the
// resume-offset option, so every depot pumps it with the standard flow
// machinery and the sink reassembles by absolute offset.
//
// Recovery composes per stripe: a stripe whose chain tears is retried
// under pol with the usual resume-at-acked-offset continuation while
// its siblings keep streaming — a single sublink failure costs one
// stripe's retry, not the transfer. When pol.Failover is set and a
// stripe makes no progress for FailoverAfter consecutive attempts, the
// shared depot path is rerouted around the dead relays exactly as in
// TransferReliable; the reroute is decided once and every sibling's
// next attempt follows the new path. Fatal errors (protocol
// violations, pattern mismatches) abort the whole transfer.
//
// stripes <= 1 (or a size smaller than the stripe count) degrades
// gracefully: the transfer runs with as many stripes as there are
// bytes, and a single stripe is exactly TransferReliable. More than
// 65 535 stripes cannot be numbered on the wire: ErrTooManyStripes.
func (s *System) TransferStriped(srcHost, dstHost string, size int64, stripes int, pol RecoveryPolicy) (TransferResult, error) {
	if size <= 0 {
		return TransferResult{}, fmt.Errorf("core: transfer size %d must be positive", size)
	}
	if stripes < 1 {
		return TransferResult{}, fmt.Errorf("core: stripe count %d must be positive", stripes)
	}
	if stripes > math.MaxUint16 {
		return TransferResult{}, fmt.Errorf("core: %d stripes: %w", stripes, ErrTooManyStripes)
	}
	if int64(stripes) > size {
		stripes = int(size)
	}
	if stripes == 1 {
		return s.TransferReliable(srcHost, dstHost, size, pol)
	}
	path, err := s.routeOrDirect(srcHost, dstHost)
	if err != nil {
		return TransferResult{}, err
	}
	id, err := wire.NewSessionID()
	if err != nil {
		return TransferResult{}, err
	}
	si, di := path[0], path[len(path)-1]
	// One trace id spans every stripe, retry continuation, and failover
	// reroute of this logical transfer. Stripes carry per-chunk
	// checksums but no content digest: the sibling ranges interleave at
	// the sink, so only the per-hop verifiers guard them.
	o := Object{ID: id, Trace: mintTrace(), Dst: s.endpoints[di], Size: size}
	if s.cfg.Integrity {
		o.Opts = []wire.Option{wire.ChunkChecksumOption(), noCache}
	}
	start := time.Now()
	route, err := s.engine(si, di).Striped(s.ctx, o, Route{Via: s.route(path)}, stripes, pol)
	if err == nil {
		s.cfg.Metrics.Counter(MetricStripedTransfers).Inc()
	}
	return s.observed(s.result(size, time.Since(start), s.pathOf(si, route, di)), err)
}

// Striped moves the object over n parallel sublink chains of route,
// each stripe a leg over its contiguous byte range that drive retries
// from its own acked offset while its siblings stream on. A failover
// one stripe decides moves them all. o.ID must be set: the stripes
// share it.
func (e *Engine) Striped(ctx context.Context, o Object, route Route, n int, pol RecoveryPolicy) (Route, error) {
	pol = pol.withDefaults()
	r := e.start(ctx, o)
	sr := &sharedRoute{route: route}
	errs := make([]error, n)
	ranges := stripeRanges(o.Size, n)
	together(n, func(k int) {
		l := r.leg(ranges[k].start, ranges[k].end, wire.StripeCountOption(uint16(n)), wire.StripeIndexOption(uint16(k)))
		l.tag = obs.Event{Stripe: obs.StripeOf(k)}
		_, errs[k] = r.drive(l, sr, pol, MetricStripeRetries, r.attempt)
	})
	for k, err := range errs {
		if err != nil {
			return sr.current(), fmt.Errorf("core: stripe %d/%d: %w", k, n, err)
		}
	}
	return sr.current(), nil
}
