package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/netlogistics/lsl/internal/depot"
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

// stripeFor locates the stripe whose range contains the absolute
// offset, or -1 when none does.
func stripeFor(ranges []stripeRange, offset int64) int {
	for k, r := range ranges {
		if offset >= r.start && offset < r.end {
			return k
		}
	}
	return -1
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
	pol = pol.withDefaults()
	path, err := s.routeOrDirect(srcHost, dstHost)
	if err != nil {
		return TransferResult{}, err
	}

	id, err := wire.NewSessionID()
	if err != nil {
		return TransferResult{}, err
	}
	// One trace id spans every stripe, retry continuation, and failover
	// reroute of this logical transfer.
	tid := mintTrace()
	ranges := stripeRanges(size, stripes)

	// One waiter channel serves every stripe session (they share the
	// id); a dispatcher routes each sink report to its stripe by the
	// absolute offset the delivered range began at. Buffers are sized
	// so sinks never block: at most one report per stripe attempt.
	ch := s.registerWaiterN(id, stripes*pol.Retry.MaxAttempts)
	defer s.dropWaiter(id)
	perStripe := make([]chan depot.Report, stripes)
	for k := range perStripe {
		perStripe[k] = make(chan depot.Report, pol.Retry.MaxAttempts)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case r := <-ch:
				if k := stripeFor(ranges, r.Offset); k >= 0 {
					perStripe[k] <- r
				}
			case <-stop:
				return
			}
		}
	}()

	// Stripes carry per-chunk checksums but no content digest: the
	// sibling ranges interleave at the sink, so only the per-hop
	// verifiers guard them.
	opts := traceOpt(tid)
	if s.cfg.Integrity {
		opts = append(opts, wire.ChunkChecksumOption())
	}
	start := time.Now()
	sp := &stripePath{path: path}
	errs := make([]error, stripes)
	var wg sync.WaitGroup
	for k, rng := range ranges {
		l := leg{
			id:      id,
			from:    rng.start,
			to:      rng.end,
			tid:     tid,
			opts:    append(opts[:len(opts):len(opts)], wire.StripeCountOption(uint16(stripes)), wire.StripeIndexOption(uint16(k))),
			tag:     obs.Event{Stripe: obs.StripeOf(k)},
			reports: perStripe[k],
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			_, errs[k] = s.drive(l, sp, pol, MetricStripeRetries, s.attempt)
		}(k)
	}
	wg.Wait()
	path = sp.current()

	for k, werr := range errs {
		if werr != nil {
			err := fmt.Errorf("core: stripe %d/%d: %w", k, stripes, werr)
			s.observeTransfer(TransferResult{}, err)
			return TransferResult{}, err
		}
	}
	out := s.result(size, time.Since(start), path)
	s.observeTransfer(out, nil)
	s.cfg.Metrics.Counter(MetricStripedTransfers).Inc()
	return out, nil
}
