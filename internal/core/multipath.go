package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/netlogistics/lsl/internal/depot"
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
		if q.remaining == 0 {
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

// report folds one sink delivery report into the queue: the covered
// range's ack frontier advances, and a clean report reaching the range
// end completes it — exactly once; a later duplicate from a stolen
// sibling session is counted and dropped.
func (q *mpQueue) report(res depot.Report) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var r *mpRange
	for _, c := range q.ranges {
		if res.Offset >= c.rng.start && res.Offset < c.rng.end {
			r = c
			break
		}
	}
	if r == nil {
		return
	}
	if end := res.Offset + res.Bytes; end > r.acked {
		r.acked = end
		if r.acked > r.rng.end {
			r.acked = r.rng.end
		}
	}
	if res.Err != nil {
		r.lastErr = res.Err
	} else if res.Offset+res.Bytes >= r.rng.end {
		if r.finished {
			q.dups++
		} else {
			r.finished = true
			q.remaining--
			close(r.done)
		}
	}
	q.cond.Broadcast()
}

// ackedOf returns r's current ack frontier.
func (q *mpQueue) ackedOf(r *mpRange) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return r.acked
}

// errOf returns the most recent sink error reported against r.
func (q *mpQueue) errOf(r *mpRange) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return r.lastErr
}

// finished reports whether r has been fully delivered.
func (q *mpQueue) finished(r *mpRange) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return r.finished
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
	if n < k {
		n = k
	}
	if int64(n) > size {
		n = int(size)
	}
	return stripeRanges(size, n)
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
// range is resolved first-ack-wins at the sink dispatcher.
//
// Every session shares the transfer's session id (sinks reassemble by
// absolute offset, as with stripes), trace id, and — under
// Config.Integrity — the whole-object content digest, stitched across
// routes by the sink's digest record. Each session additionally
// carries the path-set id and its (index, count) route coordinate;
// depots forward both untouched.
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
	si, err := s.resolve(srcHost)
	if err != nil {
		return MultipathResult{}, err
	}
	di, err := s.resolve(dstHost)
	if err != nil {
		return MultipathResult{}, err
	}
	pol = pol.withDefaults()
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
	set, err := wire.NewSessionID()
	if err != nil {
		return MultipathResult{}, err
	}
	tid := mintTrace()
	ranges := multipathRanges(size, len(paths))
	q := newMPQueue(ranges)

	// One waiter channel serves every route session (they share the
	// id); the dispatcher folds each sink report into the queue by the
	// absolute offset the delivered range began at. Buffers are sized
	// so sinks never block: at most one report per claimed attempt,
	// and a range has at most multipathMaxClaims claimants.
	ch := s.registerWaiterN(id, len(ranges)*pol.Retry.MaxAttempts*multipathMaxClaims)
	defer s.dropWaiter(id)
	if s.cfg.Integrity {
		defer s.sink.Retire(id, tid)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case r := <-ch:
				q.report(r)
			case <-stop:
				return
			}
		}
	}()

	// Every range session carries the same whole-object digest — the
	// sink stitches the routes back into one SHA-256. Computing it
	// means regenerating and hashing the full pattern, so do it once
	// here instead of once per range session.
	var integ []wire.Option
	if s.cfg.Integrity {
		integ = integrityOptions(depot.PatternDigest(id, size))
	}

	start := time.Now()
	count := len(paths)
	workers := make([]*stripePath, count)
	errs := make([]error, count)
	var wg sync.WaitGroup
	for w := range paths {
		workers[w] = &stripePath{path: paths[w]}
		// Unlike stripes, multipath ranges keep the whole-object digest:
		// the sink stitches the routes' contiguous ranges by offset into
		// one end-to-end SHA-256.
		l := leg{
			id:  id,
			tid: tid,
			opts: append(append(traceOpt(tid), integ...),
				wire.PathSetIDOption(set), wire.PathIndexOption(uint16(w), uint16(count))),
			tag: obs.Event{Path: obs.PathOf(w)},
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = s.mpWorker(q, l, workers[w], w, pol)
		}(w)
	}
	wg.Wait()

	out := MultipathResult{Routes: make([][]string, count)}
	for w := range workers {
		out.Routes[w] = s.hostNames(workers[w].current())
	}
	r := s.cfg.Metrics
	q.mu.Lock()
	out.Stolen, out.DuplicateAcks = q.stolen, q.dups
	q.mu.Unlock()
	r.Counter(MetricMultipathRangesStolen).Add(int64(out.Stolen))
	r.Counter(MetricMultipathDuplicateAcks).Add(int64(out.DuplicateAcks))

	for w, werr := range errs {
		if werr != nil && retry.IsFatal(werr) {
			err := fmt.Errorf("core: path %d/%d: %w", w, count, werr)
			s.observeTransfer(TransferResult{}, err)
			return MultipathResult{}, err
		}
	}
	if left := q.left(); left > 0 {
		err := fmt.Errorf("core: %d of %d ranges undelivered after every route died: %w",
			left, len(ranges), firstErr(errs))
		s.observeTransfer(TransferResult{}, err)
		return MultipathResult{}, err
	}
	out.TransferResult = s.result(size, time.Since(start), paths[0])
	out.Path = s.hostNames(workers[0].current())
	s.observeTransfer(out.TransferResult, nil)
	r.Counter(MetricMultipathTransfers).Inc()
	return out, nil
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
func (s *System) mpWorker(q *mpQueue, l leg, route *stripePath, w int, pol RecoveryPolicy) error {
	for {
		r := q.claim()
		if r == nil {
			return nil
		}
		l.from, l.to = r.rng.start, r.rng.end
		_, err := s.drive(l, route, pol, MetricStripeRetries, func(l leg, timeout time.Duration) (int64, wire.SessionID, error) {
			return s.mpAttempt(q, r, l, timeout)
		})
		q.release(r)
		if err != nil {
			s.cfg.Metrics.Counter(MetricMultipathPathFailures).Inc()
			s.emitHop0(l.id, l.tid, route.current()[0], obs.KindFailover, obs.Event{
				Path:   obs.PathOf(w),
				Detail: fmt.Sprintf("route %d abandoned: %v", w, err),
			})
			return err
		}
	}
}

// mpAttempt is multipath's attempt. It keeps its own wait because a
// range has two possible finishers: it sends l from the range's
// current ack frontier, then waits for the range to finish — by this
// session's own ack or a stealing sibling's (the range's done channel
// closes either way, first ack wins) — instead of for one report. It
// returns the range's ack frontier, nil exactly when the range is
// finished.
func (s *System) mpAttempt(q *mpQueue, r *mpRange, l leg, timeout time.Duration) (int64, wire.SessionID, error) {
	l.from = q.ackedOf(r)
	sess, err := s.open(l, timeout)
	if err != nil {
		return l.from, l.id, err
	}
	settle, werr := s.send(sess, l, timeout)
	select {
	case <-r.done:
		return q.ackedOf(r), l.id, nil
	case <-time.After(settle):
		acked := q.ackedOf(r)
		if q.finished(r) {
			return acked, l.id, nil
		}
		if sinkErr := q.errOf(r); sinkErr != nil {
			return acked, l.id, fmt.Errorf("core: sink: %w", sinkErr)
		}
		if werr != nil {
			return acked, l.id, fmt.Errorf("core: send: %w", werr)
		}
		return acked, l.id, retry.AsTransient(fmt.Errorf("core: range %d not finished within %v", r.idx, settle))
	}
}
