package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/retry"
	"github.com/netlogistics/lsl/internal/wire"
)

// Multipath metric names reported into Config.Metrics.
const (
	// MetricMultipathTransfers counts completed multipath transfers.
	MetricMultipathTransfers = "core_multipath_transfers_total"
	// MetricMultipathRangesStolen counts chunk ranges an idle route
	// stole from a slower sibling rather than letting it hold the tail.
	MetricMultipathRangesStolen = "core_multipath_ranges_stolen_total"
	// MetricMultipathDuplicateAcks counts double completions — a stolen
	// range delivered by both its owner and the thief; first ack wins,
	// the duplicate is harmless and counted here.
	MetricMultipathDuplicateAcks = "core_multipath_duplicate_acks_total"
	// MetricMultipathPathFailures counts route workers that died with
	// their ranges drained to the surviving routes.
	MetricMultipathPathFailures = "core_multipath_path_failures_total"
	// MetricMultipathDigestVerified counts multipath transfers whose
	// end-to-end SHA-256, stitched across every route at the sink,
	// matched the sender's digest.
	MetricMultipathDigestVerified = depot.MetricMultipathDigestVerified
)

// Multipath chunking: each route gets several ranges so the work queue
// can rebalance, but a range never shrinks below multipathMinRange —
// tinier ranges spend more time in session setup than in transfer.
const (
	multipathRangesPerPath = 4
	multipathMinRange      = 64 << 10
	// multipathMaxClaims bounds how many routes race one range: the
	// owner plus at most one thief. More would burn capacity re-sending
	// the same bytes on every route.
	multipathMaxClaims = 2
)

// MultipathResult reports one completed multipath transfer.
type MultipathResult struct {
	TransferResult
	// Routes holds the final depot route of each path worker, by path
	// index (a route that failed over mid-transfer shows its last
	// shape).
	Routes [][]string
	// Stolen counts ranges re-dispatched to an idle route.
	Stolen int
	// DuplicateAcks counts double completions resolved first-ack-wins.
	DuplicateAcks int
}

// mpRange is one chunk range of a multipath transfer's shared work
// queue. done closes on the first full ack (first-ack-wins); the
// bookkeeping fields are guarded by the owning queue's mutex.
type mpRange struct {
	idx  int
	rng  stripeRange
	done chan struct{}

	acked    int64 // deepest absolute offset a sink report covered
	claims   int   // route workers currently sending this range
	finished bool
	lastErr  error // most recent sink error, for classification
}

// mpQueue is the shared chunk-range work queue: pending ranges are
// claimed in object order, and once the queue drains an idle route
// steals the in-flight range with the most bytes left — a slow or
// stalled route never holds the tail. Claims are capped so at most
// multipathMaxClaims routes race one range.
type mpQueue struct {
	mu        sync.Mutex
	cond      *sync.Cond
	ranges    []*mpRange
	pending   []int
	remaining int
	stolen    int
	dups      int
	failed    bool // a digest mismatch: nothing is left worth claiming
}

func newMPQueue(ranges []stripeRange) *mpQueue {
	q := &mpQueue{remaining: len(ranges)}
	q.cond = sync.NewCond(&q.mu)
	for i, r := range ranges {
		q.ranges = append(q.ranges, &mpRange{idx: i, rng: r, acked: r.start, done: make(chan struct{})})
		q.pending = append(q.pending, i)
	}
	return q
}

// claim returns the next range for a worker to drive: a pending range
// in object order when one exists, otherwise the in-flight range with
// the most bytes left (a steal). It blocks while every unfinished
// range is already fully claimed and returns nil once the whole object
// is delivered.
func (q *mpQueue) claim() *mpRange {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.remaining == 0 || q.failed {
			return nil
		}
		if len(q.pending) > 0 {
			r := q.ranges[q.pending[0]]
			q.pending = q.pending[1:]
			r.claims++
			return r
		}
		var best *mpRange
		for _, r := range q.ranges {
			if r.finished || r.claims == 0 || r.claims >= multipathMaxClaims {
				continue
			}
			if best == nil || r.rng.end-r.acked > best.rng.end-best.acked {
				best = r
			}
		}
		if best != nil {
			best.claims++
			q.stolen++
			return best
		}
		q.cond.Wait()
	}
}

// release returns a worker's claim on r. An unfinished range with no
// claimants left goes back on the pending queue so a surviving route
// picks it up — how a dead route's work drains to its siblings.
func (q *mpQueue) release(r *mpRange) {
	q.mu.Lock()
	defer q.mu.Unlock()
	r.claims--
	if !r.finished && r.claims == 0 {
		q.pending = append(q.pending, r.idx)
	}
	q.cond.Broadcast()
}

// report folds a sink report of a session of r into the queue: r's
// ack frontier advances, and a clean report reaching r's end finishes
// it — exactly once; a later duplicate from a stolen sibling session
// is counted and dropped. A digest mismatch fails the whole queue.
func (q *mpQueue) report(r *mpRange, res depot.Report) {
	q.mu.Lock()
	defer q.mu.Unlock()
	end := res.Offset + res.Bytes
	r.acked = max(r.acked, min(end, r.rng.end))
	switch {
	case res.Err != nil:
		r.lastErr = res.Err
		q.failed = q.failed || errors.Is(res.Err, wire.ErrDigest)
	case end < r.rng.end:
	case r.finished:
		q.dups++
	default:
		r.finished = true
		q.remaining--
		close(r.done)
	}
	q.cond.Broadcast()
}

// state returns r's ack frontier, whether it is finished, and the most
// recent sink error reported against it.
func (q *mpQueue) state(r *mpRange) (acked int64, finished bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return r.acked, r.finished, r.lastErr
}

// left reports how many ranges are not yet delivered.
func (q *mpQueue) left() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.remaining
}

// multipathRanges splits size bytes into the chunk ranges k routes
// work-steal over: multipathRangesPerPath per route, shrunk so no
// range falls below multipathMinRange (and never fewer ranges than
// routes, unless the object is smaller than the route count).
func multipathRanges(size int64, k int) []stripeRange {
	n := k * multipathRangesPerPath
	if int64(n)*multipathMinRange > size {
		n = int(size / multipathMinRange)
	}
	return stripeRanges(size, int(min(int64(max(n, k)), size)))
}

// TransferMultipath moves size bytes from srcHost to dstHost as one
// logical transfer fanned across up to k edge-disjoint depot routes.
// The planner extracts the routes (best minimax bottleneck first,
// fewer when the graph runs out of disjoint routes); each route runs a
// pinned-route worker that pulls contiguous chunk ranges from a shared
// work queue, so a route self-clocks to its observed throughput — a
// fast route simply pulls more ranges, and once the queue drains an
// idle route steals the largest in-flight remainder so a slow or
// killed route never holds the tail. Double completion from a stolen
// range is resolved first-ack-wins.
//
// Every session shares the transfer's session id (sinks reassemble by
// absolute offset, as with stripes), trace id, and — under
// Config.Integrity — the whole-object content digest, stitched across
// routes by the sink's digest record; a mismatch fails the transfer
// with wire.ErrDigest, whichever session reached it. Each session also
// carries its (index, count) route coordinate; depots forward it
// untouched.
//
// Recovery composes per route: a torn range retries under pol with
// resume-at-acked-offset, a starved route fails over around its dead
// relays exactly as in TransferReliable, and a route that exhausts its
// attempts dies alone — its claimed ranges drain back to the queue for
// the surviving routes. The transfer fails only on a fatal error or
// when every route dies with ranges still undelivered.
//
// k <= 1 (or a planner that finds a single route) degrades to the
// single-path TransferReliable machinery.
func (s *System) TransferMultipath(srcHost, dstHost string, size int64, k int, pol RecoveryPolicy) (MultipathResult, error) {
	if size <= 0 {
		return MultipathResult{}, fmt.Errorf("core: transfer size %d must be positive", size)
	}
	if k < 1 {
		return MultipathResult{}, fmt.Errorf("core: path count %d must be positive", k)
	}
	si, di, err := s.pair(srcHost, dstHost)
	if err != nil {
		return MultipathResult{}, err
	}
	paths, err := s.Planner.DisjointPaths(si, di, k)
	if err != nil {
		return MultipathResult{}, err
	}
	if len(paths) == 0 {
		paths = [][]int{{si, di}}
	}
	if len(paths) == 1 || size < 2 {
		res, err := s.TransferReliable(srcHost, dstHost, size, pol)
		if err != nil {
			return MultipathResult{}, err
		}
		return MultipathResult{TransferResult: res, Routes: [][]string{res.Path}}, nil
	}

	id, err := wire.NewSessionID()
	if err != nil {
		return MultipathResult{}, err
	}
	o := Object{ID: id, Trace: mintTrace(), Dst: s.endpoints[di], Size: size}
	if s.cfg.Integrity {
		// Every range session carries the same whole-object digest: the
		// sink stitches the routes back into one SHA-256.
		o.Opts = integrityOptions(depot.PatternDigest(id, size))
		defer s.sink.Retire(id, o.Trace)
	}
	routes := make([]Route, len(paths))
	for w, p := range paths {
		routes[w] = Route{Via: s.route(p)}
	}
	start := time.Now()
	spread, err := s.engine(si, di).Multipath(s.ctx, o, routes, pol)
	res, err := s.observed(s.result(size, time.Since(start), paths[0]), err)
	if err != nil {
		return MultipathResult{}, err
	}
	out := MultipathResult{TransferResult: res, Routes: make([][]string, len(paths)), Stolen: spread.Stolen, DuplicateAcks: spread.DuplicateAcks}
	for w, r := range spread.Routes {
		out.Routes[w] = s.hostNames(s.pathOf(si, r, di))
	}
	out.Path = out.Routes[0]
	s.cfg.Metrics.Counter(MetricMultipathTransfers).Inc()
	return out, nil
}

// Spread is what a multipath transfer did beside delivering: the route
// each worker ended on, by path index, the ranges stolen and the
// duplicate completions.
type Spread struct {
	Routes        []Route
	Stolen        int
	DuplicateAcks int
}

// Multipath moves the object over every route at once: each route's
// worker claims ranges off one shared queue and drives each as a leg,
// stealing the largest in-flight remainder once the queue drains, and
// a worker whose range exhausts its attempts dies alone. o.ID must be
// set: every route shares it.
func (e *Engine) Multipath(ctx context.Context, o Object, routes []Route, pol RecoveryPolicy) (Spread, error) {
	pol = pol.withDefaults()
	r := e.start(ctx, o)
	ranges := multipathRanges(o.Size, len(routes))
	q := newMPQueue(ranges)
	count := len(routes)
	workers := make([]*sharedRoute, count)
	errs := make([]error, count)
	together(count, func(w int) {
		workers[w] = &sharedRoute{route: routes[w]}
		l := r.leg(0, 0, wire.PathIndexOption(uint16(w), uint16(count)))
		l.tag = obs.Event{Path: obs.PathOf(w)}
		errs[w] = r.mpWorker(q, l, workers[w], w, pol)
	})

	out := Spread{Routes: make([]Route, count)}
	for w := range workers {
		out.Routes[w] = workers[w].current()
	}
	q.mu.Lock()
	out.Stolen, out.DuplicateAcks = q.stolen, q.dups
	q.mu.Unlock()
	e.Metrics.Counter(MetricMultipathRangesStolen).Add(int64(out.Stolen))
	e.Metrics.Counter(MetricMultipathDuplicateAcks).Add(int64(out.DuplicateAcks))

	for w, werr := range errs {
		if werr != nil && retry.IsFatal(werr) {
			return out, fmt.Errorf("core: path %d/%d: %w", w, count, werr)
		}
	}
	if left := q.left(); left > 0 {
		return out, fmt.Errorf("core: %d of %d ranges undelivered after every route died: %w",
			left, len(ranges), firstErr(errs))
	}
	return out, r.verdict(pol.AttemptTimeout)
}

// firstErr returns the first non-nil error, or nil.
func firstErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// mpWorker drives one pinned route: it claims chunk ranges off the
// shared queue and drives each as a leg until the object is delivered,
// and dies alone — with its claim released back to the queue — when a
// range exhausts its attempts on this route.
func (r *run) mpWorker(q *mpQueue, l leg, route *sharedRoute, w int, pol RecoveryPolicy) error {
	for {
		rg := q.claim()
		if rg == nil {
			return nil
		}
		l.from, l.to = rg.rng.start, rg.rng.end
		_, err := r.drive(l, route, pol, MetricStripeRetries, func(l leg, timeout time.Duration) (int64, wire.SessionID, error) {
			return r.mpAttempt(q, rg, l, timeout)
		})
		q.release(rg)
		if err != nil {
			r.Metrics.Counter(MetricMultipathPathFailures).Inc()
			r.emit(l.id, obs.KindFailover, obs.Event{Path: obs.PathOf(w), Detail: fmt.Sprintf("route %d abandoned: %v", w, err)})
			return err
		}
	}
}

// mpAttempt is multipath's attempt. A range has two possible
// finishers, so it sends l from the range's current ack frontier, folds
// its own session's report into the queue, and stops waiting for that
// report once a stealing sibling finishes the range first. It returns
// the range's ack frontier, nil exactly when the range is finished; a
// digest mismatch is fatal to the whole transfer, whose other ranges
// no re-send can repair.
func (r *run) mpAttempt(q *mpQueue, rg *mpRange, l leg, timeout time.Duration) (int64, wire.SessionID, error) {
	l.from, _, _ = q.state(rg)
	sess, err := r.open(l, timeout)
	if err != nil {
		return l.from, l.id, err
	}
	settle, werr := r.send(sess, l, timeout)
	ctx, cancel := context.WithTimeout(r.ctx, settle)
	defer cancel()
	go func() {
		select {
		case <-rg.done:
			cancel()
		case <-ctx.Done():
		}
	}()
	res, aerr := r.await(ctx, depot.Query{ID: sess.ID(), Trace: r.obj.Trace, Offset: l.from})
	switch {
	case aerr == nil:
		q.report(rg, res)
	case errors.Is(aerr, lsl.ErrRefused) && werr == nil:
		q.report(rg, depot.Report{Offset: l.from, Bytes: l.to - l.from})
	}
	acked, finished, sinkErr := q.state(rg)
	switch {
	case errors.Is(res.Err, wire.ErrDigest):
		return acked, l.id, retry.AsFatal(fmt.Errorf("core: sink: %w", res.Err))
	case finished:
		return acked, l.id, nil
	case sinkErr != nil:
		return acked, l.id, fmt.Errorf("core: sink: %w", sinkErr)
	case werr != nil:
		return acked, l.id, fmt.Errorf("core: send: %w", werr)
	}
	return acked, l.id, retry.AsTransient(fmt.Errorf("core: range %d not finished within %v", rg.idx, settle))
}
