package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netlogistics/lsl/internal/bufpool"
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/retry"
	"github.com/netlogistics/lsl/internal/wire"
)

// Engine is the one sender every transfer mode runs on, in process over
// the emulated WAN and over real TCP alike: it moves byte ranges of an
// object to the sink over routes of depots given as endpoints, and
// learns what landed from the sink's reports — the system's Sink.Await
// in process, a status query over TCP. Depots only relay; what the sink
// verified decides where a retry resumes and whether the transfer
// succeeded.
type Engine struct {
	// Dial opens each session's first sublink.
	Dial lsl.Dialer
	// Src is the sender's endpoint, carried in every header.
	Src wire.Endpoint
	// Await returns the sink's report of the session q names, waiting
	// while ctx lasts. lsl.ErrRefused means the sink keeps no reports:
	// a session then counts as delivered when its writes went through.
	Await func(ctx context.Context, q depot.Query) (depot.Report, error)
	// Failover returns the route to try once route stopped making
	// progress; nil never reroutes.
	Failover func(route Route, id wire.SessionID, tid wire.TraceID) Route
	// Stall, when positive, bounds a session by its progress, not its
	// length: each write must go through within Stall, and a cleanly
	// written session's report gets the whole attempt timeout (Await
	// bounds it by the sink's progress).
	Stall time.Duration
	// Metrics and Trace receive the engine's counters and hop-0 events
	// (either may be nil).
	Metrics *obs.Registry
	Trace   obs.Sink
}

// Route is how a session reaches the sink: through the loose source
// route Via (empty: direct), or, with Entry set, by the route tables of
// the depots from Entry on.
type Route struct {
	Via   []wire.Endpoint
	Entry wire.Endpoint
}

// Object is what one transfer moves: Size bytes of session ID's pattern
// to Dst, under trace Trace, every session carrying Opts. A zero ID
// lets each attempt mint its own; a content digest in Opts needs the ID
// it was computed for.
type Object struct {
	ID    wire.SessionID
	Trace wire.TraceID
	Dst   wire.Endpoint
	Size  int64
	Opts  []wire.Option
}

// run is one transfer on the engine.
type run struct {
	*Engine
	ctx    context.Context
	obj    Object
	opts   []wire.Option // the trace id, then obj.Opts
	digest bool          // obj.Opts carries a content digest
	// checked is set once a report carried the digest verdict, so the
	// transfer need not ask for it.
	checked atomic.Bool
}

func (e *Engine) start(ctx context.Context, o Object) *run {
	return &run{Engine: e, ctx: ctx, obj: o, opts: append(traceOpt(o.Trace), o.Opts...), digest: hasOption(o.Opts, wire.OptContentDigest)}
}

// leg is the unit every transfer mode is built from: the byte range
// [from, to) of the object, sent as one session over route. Mode
// differences are data here, never branches on a mode name: stripe and
// path coordinates ride in opts, and tag carries the stripe or path
// index onto every hop-0 event.
type leg struct {
	route    Route
	id       wire.SessionID
	from, to int64
	opts     []wire.Option
	tag      obs.Event
}

func (r *run) leg(from, to int64, extra ...wire.Option) leg {
	return leg{id: r.obj.ID, from: from, to: to, opts: append(r.opts[:len(r.opts):len(r.opts)], extra...)}
}

// drainWindow is how long a torn attempt waits for the sink's report of
// in-flight bytes that may still land after the send side failed.
const drainWindow = 500 * time.Millisecond

// emitHop0 reports an initiator-side (hop 0) trace event from node. A
// zero tid (tracing unavailable) leaves the event uncorrelated; a zero
// session id (a retry after a failed dial has no session yet) leaves it
// keyed by the trace id alone.
func emitHop0(sink obs.Sink, node wire.Endpoint, id wire.SessionID, tid wire.TraceID, kind string, e obs.Event) {
	e.Kind = kind
	if id != (wire.SessionID{}) {
		e.Session = id.String()
	}
	if !tid.IsZero() {
		e.Trace = tid.String()
	}
	e.Hop = 0
	e.Node = node.String()
	obs.Emit(sink, e)
}

func (r *run) emit(id wire.SessionID, kind string, e obs.Event) {
	emitHop0(r.Trace, r.Src, id, r.obj.Trace, kind, e)
}

// open starts l's session through a dialer whose connect is bounded by
// timeout and reports it connected.
func (r *run) open(l leg, timeout time.Duration) (*lsl.Session, error) {
	sess, err := lsl.Start(lsl.TimeoutDialer(r.Dial, timeout), lsl.Spec{
		ID:      l.id,
		Src:     r.Src,
		Dst:     r.obj.Dst,
		Route:   l.route.Via,
		Entry:   l.route.Entry,
		Offset:  l.from,
		Options: l.opts,
	})
	if err != nil {
		return nil, err
	}
	e, first := l.tag, cmp.Or(l.route.Entry, r.obj.Dst)
	if len(l.route.Via) > 0 {
		first = l.route.Via[0]
	}
	e.Peer, e.Bytes = first.String(), l.from
	r.emit(sess.ID(), obs.KindConnect, e)
	return sess, nil
}

// send streams l's range into sess and closes it. Every write races
// one deadline, timeout from now (Stall from the write, when set), so a
// stalled chain never pins the sender. It returns how long to wait for
// the sink's report: the rest of the deadline after a clean write —
// that report IS the success signal — and only a short drain window
// after a torn one, whose chain can deliver only bytes in flight.
func (r *run) send(sess *lsl.Session, l leg, timeout time.Duration) (time.Duration, error) {
	deadline := time.Now().Add(timeout)
	if r.Stall > 0 {
		sess = &lsl.Session{Conn: stallConn{sess.Conn, r.Stall}, Header: sess.Header}
	} else {
		_ = sess.SetWriteDeadline(deadline)
	}
	r.emit(sess.ID(), obs.KindFirstByte, l.tag)
	werr := writeSessionPattern(sess, l.from, l.to)
	sess.Close()
	if werr == nil {
		e := l.tag
		e.Bytes = l.to - l.from
		r.emit(sess.ID(), obs.KindLastByte, e)
	}
	settle := time.Until(deadline)
	switch {
	case werr != nil:
		settle = drainWindow
	case r.Stall > 0:
		settle = timeout
	case settle < drainWindow:
		settle = drainWindow
	}
	return settle, werr
}

// stallConn renews its write deadline before every write.
type stallConn struct {
	net.Conn
	stall time.Duration
}

func (c stallConn) Write(p []byte) (int, error) {
	if err := c.Conn.SetWriteDeadline(time.Now().Add(c.stall)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// await asks for the report q names while ctx lasts, noting a verdict.
func (r *run) await(ctx context.Context, q depot.Query) (depot.Report, error) {
	res, err := r.Await(ctx, q)
	if err == nil && res.Checked {
		r.checked.Store(true)
	}
	return res, err
}

// attempt runs one session of l — open, send, await the sink's report
// — and returns the absolute offset the sink has acked up to, the
// session id, and the attempt's error. Partial progress and an error
// often coexist: a chain that dies mid-stream still delivered its
// prefix.
func (r *run) attempt(l leg, timeout time.Duration) (int64, wire.SessionID, error) {
	sess, err := r.open(l, timeout)
	if err != nil {
		return l.from, l.id, err
	}
	id := sess.ID()
	settle, werr := r.send(sess, l, timeout)
	ctx, cancel := context.WithTimeout(r.ctx, settle)
	defer cancel()
	// Attempts may share one session id and offset, so a late report
	// from an earlier torn attempt can land here. Its range starts no
	// deeper than from, so it can only under-report, never advance the
	// ack past what the sink verified.
	res, err := r.await(ctx, depot.Query{ID: id, Trace: r.obj.Trace, Offset: l.from})
	switch {
	case errors.Is(err, lsl.ErrRefused) && werr == nil:
		return l.to, id, nil
	case err != nil && werr != nil:
		return l.from, id, fmt.Errorf("core: send: %w", werr)
	case err != nil:
		return l.from, id, retry.AsTransient(fmt.Errorf("core: no sink report within %v", settle))
	}
	acked := max(l.from, res.Offset+res.Bytes)
	if res.Err != nil {
		return acked, id, fmt.Errorf("core: sink: %w", res.Err)
	}
	if werr != nil && acked < l.to {
		return acked, id, fmt.Errorf("core: send: %w", werr)
	}
	return acked, id, nil
}

// verdict returns the digest verdict of a transfer whose ranges are all
// acked when no report carried it yet: a stolen range's duplicate can
// finish the last range before the session that reached the verdict
// reports. A budget-degraded record answers unchecked, without error.
func (r *run) verdict(timeout time.Duration) error {
	if !r.digest || r.checked.Load() {
		return nil
	}
	ctx, cancel := context.WithTimeout(r.ctx, timeout)
	defer cancel()
	res, err := r.await(ctx, depot.Query{ID: r.obj.ID, Trace: r.obj.Trace, Offset: depot.VerdictOffset})
	switch {
	case errors.Is(err, lsl.ErrRefused):
		return nil
	case err != nil:
		return retry.AsTransient(fmt.Errorf("core: no digest verdict within %v", timeout))
	case res.Err != nil:
		return fmt.Errorf("core: sink: %w", res.Err)
	}
	return nil
}

// drive is the retry loop every recovering mode composes: it runs
// attempts of l (through try — r.attempt, or multipath's variant)
// under pol until the sink has acked the whole range, and returns the
// offset acked up to. Each retry counts into the retries metric and
// emits a retry event; a continuation resumes at the acked offset; a
// fatal error aborts at once; and FailoverAfter attempts in a row
// without progress reroute sr — shared with sibling legs — around the
// dead relays.
func (r *run) drive(l leg, sr *sharedRoute, pol RecoveryPolicy, retries string, try func(leg, time.Duration) (int64, wire.SessionID, error)) (int64, error) {
	start := l.from
	var (
		lastErr    error
		lastID     wire.SessionID
		noProgress int
	)
	for attempt := 0; attempt < pol.Retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			r.Metrics.Counter(retries).Inc()
			e := l.tag
			e.Bytes, e.Detail = l.from, fmt.Sprintf("%s: %v", retry.Classify(lastErr), lastErr)
			r.emit(lastID, obs.KindRetry, e)
			if err := pol.Retry.Sleep(r.ctx, attempt-1); err != nil {
				break
			}
			if l.from > start {
				// Bytes the continuation session does not re-send.
				r.Metrics.Counter(MetricResumedBytes).Add(l.from - start)
			}
		}
		var gen int
		l.route, gen = sr.get()
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
			r.Metrics.Counter(MetricRecoveryFatal).Inc()
			return l.from, fmt.Errorf("core: fatal: %w", aerr)
		}
		if errors.Is(aerr, wire.ErrDigest) {
			// The whole-object digest failed: some delivered byte is
			// suspect even though every chunk checksum passed, so the
			// acked prefix can no longer be trusted. Start over (the
			// sink's digest state is already gone), taking the filed
			// mismatch first so that a verdict query hears the restart's.
			l.from = start
			r.checked.Store(false)
			ctx, cancel := context.WithTimeout(r.ctx, pol.AttemptTimeout)
			r.Await(ctx, depot.Query{ID: r.obj.ID, Trace: r.obj.Trace, Offset: depot.VerdictOffset}) //nolint:errcheck // a verdict already taken leaves none
			cancel()
		}
		if progressed {
			noProgress = 0
		} else {
			noProgress++
		}
		if pol.Failover && r.Failover != nil && noProgress >= pol.FailoverAfter && len(l.route.Via) > 0 {
			sr.failover(gen, func(cur Route) Route { return r.Failover(cur, lastID, r.obj.Trace) })
			noProgress = 0
		}
	}
	return l.from, fmt.Errorf("core: %w after %d attempts: %w", retry.ErrExhausted, pol.Retry.MaxAttempts, lastErr)
}

// sharedRoute is the route the legs of one transfer share (every
// stripe of a striped transfer; one route of a multipath transfer). A
// failover reroute decided by one leg advances the generation and every
// sibling's next attempt follows the new route; the generation guard
// in failover makes concurrent triggers from several starved legs cost
// a single reroute.
type sharedRoute struct {
	mu    sync.Mutex
	route Route
	gen   int
}

// get returns the current route and its generation.
func (p *sharedRoute) get() (Route, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.route, p.gen
}

// current returns the route the transfer ended on.
func (p *sharedRoute) current() Route {
	route, _ := p.get()
	return route
}

// failover reroutes via fn unless a sibling already rerouted past gen.
func (p *sharedRoute) failover(gen int, fn func(cur Route) Route) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if gen != p.gen {
		return // a sibling already rerouted this generation
	}
	p.route = fn(p.route)
	p.gen++
}

// Once sends the whole object over route as one attempt bounded by
// timeout: the unrecovered transfer.
func (e *Engine) Once(ctx context.Context, o Object, route Route, timeout time.Duration) error {
	r := e.start(ctx, o)
	l := r.leg(0, o.Size)
	l.route = route
	acked, _, err := r.attempt(l, timeout)
	if err == nil && acked != o.Size {
		err = fmt.Errorf("core: sink received %d of %d bytes", acked, o.Size)
	}
	if err != nil {
		return err
	}
	return r.verdict(timeout)
}

// Send moves the whole object over route under pol, resuming each
// retry at the sink's acked offset and rerouting through e.Failover,
// and returns the route it ended on.
func (e *Engine) Send(ctx context.Context, o Object, route Route, pol RecoveryPolicy) (Route, error) {
	pol = pol.withDefaults()
	r := e.start(ctx, o)
	sr := &sharedRoute{route: route}
	_, err := r.drive(r.leg(0, o.Size), sr, pol, MetricRetryAttempts, r.attempt)
	if err == nil {
		err = r.verdict(pol.AttemptTimeout)
	}
	return sr.current(), err
}

// writeSessionPattern streams the session's deterministic pattern for
// absolute object offsets [from, to) — through the chunk framer when
// the session is checksummed. The copy buffer is pooled with the depot
// pumps and sink loops.
func writeSessionPattern(sess *lsl.Session, from, to int64) error {
	bp := bufpool.Get()
	defer bufpool.Put(bp)
	_, err := depot.WritePattern(sess.Payload(), *bp, sess.ID(), from, to)
	return err
}
