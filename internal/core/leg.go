package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/netlogistics/lsl/internal/bufpool"
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/retry"
	"github.com/netlogistics/lsl/internal/wire"
)

// leg is the unit every transfer mode is built from: the byte range
// [from, to) of the object, sent as one session along path. Mode
// differences are data here, never branches on a mode name: stripe and
// path coordinates ride in opts, tag carries the stripe or path index
// onto every hop-0 event, and reports says where the sink's delivery
// report arrives.
type leg struct {
	// path is the host-index path src..dst; its interior hosts form
	// the loose source route.
	path []int
	// entry, when set, is the first hop dialled with no source route
	// (hop-by-hop and table-driven sessions): depots route the rest.
	entry wire.Endpoint
	// id is the session id every attempt presents; zero lets each
	// attempt mint its own.
	id       wire.SessionID
	from, to int64
	tid      wire.TraceID
	// opts are the header options (trace id, integrity, weight, stripe
	// or path coordinates); the resume offset is added from from.
	opts []wire.Option
	// tag is copied onto every hop-0 event the leg emits.
	tag obs.Event
	// reports delivers the sink's reports for this leg; nil makes each
	// attempt wait on its own session id.
	reports <-chan depot.Report
}

// drainWindow is how long a torn attempt waits for the sink's report of
// in-flight bytes that may still land after the send side failed.
const drainWindow = 500 * time.Millisecond

// open starts l's session through a dialer whose connect is bounded by
// timeout and reports it connected.
func (s *System) open(l leg, timeout time.Duration) (*lsl.Session, error) {
	src, dst := l.path[0], l.path[len(l.path)-1]
	spec := lsl.Spec{
		ID:      l.id,
		Src:     s.endpoints[src],
		Dst:     s.endpoints[dst],
		Entry:   l.entry,
		Offset:  l.from,
		Options: l.opts,
	}
	first := l.entry
	if first.IsZero() {
		spec.Route = s.route(l.path)
		first = s.endpoints[l.path[1]]
	}
	// Per-hop connect timeout on the first sublink; depots bound their
	// own onward dials.
	sess, err := lsl.Start(lsl.TimeoutDialer(s.dialerFor(src), timeout), spec)
	if err != nil {
		return nil, err
	}
	e := l.tag
	e.Peer, e.Bytes = first.String(), l.from
	s.emitHop0(sess.ID(), l.tid, src, obs.KindConnect, e)
	return sess, nil
}

// send streams l's range into sess and closes it. Every write races
// one deadline, timeout from now, so a stalled chain never pins the
// sender. It returns how long to wait for the sink's report: the rest
// of the deadline after a clean write — that report IS the success
// signal — and only a short drain window after a torn one, whose chain
// is already down and can deliver only bytes in flight.
func (s *System) send(sess *lsl.Session, l leg, timeout time.Duration) (time.Duration, error) {
	deadline := time.Now().Add(timeout)
	_ = sess.SetWriteDeadline(deadline)
	s.emitHop0(sess.ID(), l.tid, l.path[0], obs.KindFirstByte, l.tag)
	werr := writeSessionPattern(sess, l.from, l.to)
	sess.Close()
	if werr == nil {
		e := l.tag
		e.Bytes = l.to - l.from
		s.emitHop0(sess.ID(), l.tid, l.path[0], obs.KindLastByte, e)
	}
	settle := time.Until(deadline)
	if werr != nil || settle < drainWindow {
		settle = drainWindow
	}
	return settle, werr
}

// attempt runs one session of l — open, send, wait for the sink's
// report — and returns the absolute offset the sink has acked up to,
// the session id, and the attempt's error. Partial progress and an
// error often coexist: a chain that dies mid-stream still delivered its
// prefix.
func (s *System) attempt(l leg, timeout time.Duration) (int64, wire.SessionID, error) {
	sess, err := s.open(l, timeout)
	if err != nil {
		return l.from, l.id, err
	}
	id := sess.ID()
	reports := l.reports
	if reports == nil {
		reports = s.registerWaiter(id)
		defer s.dropWaiter(id)
	}
	settle, werr := s.send(sess, l, timeout)
	// Attempts may share one session id, so a late report from an
	// earlier torn attempt can land here. Its range starts no deeper
	// than from, so it can only under-report, never advance the ack
	// past what the sink verified.
	select {
	case res := <-reports:
		acked := max(l.from, res.Offset+res.Bytes)
		if res.Err != nil {
			return acked, id, fmt.Errorf("core: sink: %w", res.Err)
		}
		if werr != nil && acked < l.to {
			return acked, id, fmt.Errorf("core: send: %w", werr)
		}
		return acked, id, nil
	case <-time.After(settle):
		if werr != nil {
			return l.from, id, fmt.Errorf("core: send: %w", werr)
		}
		return l.from, id, retry.AsTransient(fmt.Errorf("core: no sink report within %v", settle))
	}
}

// drive is the retry loop every recovering mode composes: it runs
// attempts of l (through try — s.attempt, or multipath's
// first-ack-wins variant) under pol until the sink has acked the whole
// range, and returns the offset acked up to. Each retry counts into
// the retries metric and emits a retry event; a continuation resumes
// at the acked offset; a fatal error aborts at once; and FailoverAfter
// attempts in a row without progress reroute sp — shared with sibling
// legs — around the dead relays.
func (s *System) drive(l leg, sp *stripePath, pol RecoveryPolicy, retries string, try func(leg, time.Duration) (int64, wire.SessionID, error)) (int64, error) {
	reg := s.cfg.Metrics
	start := l.from
	var (
		lastErr    error
		lastID     wire.SessionID
		noProgress int
	)
	for attempt := 0; attempt < pol.Retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			reg.Counter(retries).Inc()
			e := l.tag
			e.Bytes, e.Detail = l.from, fmt.Sprintf("%s: %v", retry.Classify(lastErr), lastErr)
			s.emitHop0(lastID, l.tid, l.path[0], obs.KindRetry, e)
			if err := pol.Retry.Sleep(context.Background(), attempt-1); err != nil {
				break
			}
			if l.from > start {
				// Bytes the continuation session does not re-send.
				reg.Counter(MetricResumedBytes).Add(l.from - start)
			}
		}
		var gen int
		l.path, gen = sp.get()
		acked, id, aerr := try(l, pol.AttemptTimeout)
		progressed := acked > l.from
		l.from, lastID = acked, id
		if aerr == nil && acked >= l.to {
			return acked, nil
		}
		if aerr == nil {
			// The chain tore after every write was buffered: no send
			// error, a clean partial delivery. Retryable by definition.
			aerr = retry.AsTransient(fmt.Errorf("core: sink acked %d of %d bytes", acked-start, l.to-start))
		}
		lastErr = aerr
		if retry.IsFatal(aerr) {
			reg.Counter(MetricRecoveryFatal).Inc()
			return l.from, fmt.Errorf("core: fatal: %w", aerr)
		}
		if errors.Is(aerr, wire.ErrDigest) {
			// The whole-object digest failed: some delivered byte is
			// suspect even though every chunk checksum passed, so the
			// acked prefix can no longer be trusted. Start over (the
			// sink's digest state is already gone).
			l.from = start
		}
		if progressed {
			noProgress = 0
		} else {
			noProgress++
		}
		if pol.Failover && noProgress >= pol.FailoverAfter && len(l.path) > 2 {
			sp.failover(gen, func(cur []int) []int { return s.failoverPath(cur, lastID, l.tid) })
			noProgress = 0
		}
	}
	return l.from, fmt.Errorf("core: %w after %d attempts: %w", retry.ErrExhausted, pol.Retry.MaxAttempts, lastErr)
}

// stripePath is the depot path the legs of one transfer share (every
// stripe of a striped transfer; one route of a multipath transfer). A
// failover reroute decided by one leg advances the generation and every
// sibling's next attempt follows the new path; the generation guard in
// failover makes concurrent triggers from several starved legs cost a
// single probe-and-replan.
type stripePath struct {
	mu   sync.Mutex
	path []int
	gen  int
}

// get returns the current path and its generation.
func (p *stripePath) get() ([]int, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.path, p.gen
}

// current returns the path the transfer ended on.
func (p *stripePath) current() []int {
	path, _ := p.get()
	return path
}

// failover reroutes via fn unless a sibling already rerouted past gen.
func (p *stripePath) failover(gen int, fn func(cur []int) []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if gen != p.gen {
		return // a sibling already rerouted this generation
	}
	p.path = fn(p.path)
	p.gen++
}

// route is the loose source route of path: its interior hosts'
// endpoints.
func (s *System) route(path []int) []wire.Endpoint {
	route := make([]wire.Endpoint, 0, len(path)-2)
	for _, h := range path[1 : len(path)-1] {
		route = append(route, s.endpoints[h])
	}
	return route
}

// writeSessionPattern streams the session's deterministic pattern for
// absolute object offsets [from, to) — through the chunk framer when
// the session is checksummed. The copy buffer is pooled with the depot
// pumps and sink loops.
func writeSessionPattern(sess *lsl.Session, from, to int64) error {
	bp := bufpool.Get()
	defer bufpool.Put(bp)
	_, err := depot.WritePattern(sessionWriter(sess), *bp, sess.ID(), from, to)
	return err
}
