package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/netlogistics/lsl/internal/bufpool"
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/retry"
	"github.com/netlogistics/lsl/internal/wire"
)

// Recovery metric names reported into Config.Metrics by TransferReliable.
const (
	MetricRetryAttempts = "core_retry_attempts_total"
	MetricFailovers     = "core_failovers_total"
	MetricResumedBytes  = "core_resumed_bytes_total"
	MetricRecoveryFatal = "core_recovery_fatal_total"
)

// RecoveryPolicy parameterizes TransferReliable: how often to retry a
// failing chain, when to give up on its depots and reroute, and how
// long one attempt may take.
type RecoveryPolicy struct {
	// Retry is the attempt schedule across the whole transfer. A zero
	// policy (MaxAttempts 0) selects retry.DefaultPolicy — a reliable
	// transfer that never retries is a contradiction.
	Retry retry.Policy
	// Failover enables rerouting: after FailoverAfter consecutive
	// attempts with no delivered progress, the current path's depots
	// are probed, the unreachable (or, failing that, all current)
	// relays are excluded, and the minimax path is recomputed on the
	// surviving topology. With no surviving relay route the transfer
	// degrades to direct source→destination TCP.
	Failover bool
	// FailoverAfter is the consecutive zero-progress failure count that
	// triggers a reroute (default 2).
	FailoverAfter int
	// AttemptTimeout bounds one attempt's connect, writes, and the wait
	// for the sink's report (default 15 s of wall time).
	AttemptTimeout time.Duration
}

// DefaultRecovery is the standard policy: 4 attempts with backoff,
// failover after 2 dead attempts, 15 s per attempt.
func DefaultRecovery() RecoveryPolicy {
	return RecoveryPolicy{Retry: retry.DefaultPolicy(), Failover: true}
}

func (p RecoveryPolicy) withDefaults() RecoveryPolicy {
	if p.Retry.MaxAttempts < 1 {
		p.Retry = retry.DefaultPolicy()
	}
	if p.FailoverAfter < 1 {
		p.FailoverAfter = 2
	}
	if p.AttemptTimeout <= 0 {
		p.AttemptTimeout = 15 * time.Second
	}
	return p
}

// TransferReliable moves size bytes from srcHost to dstHost like
// Transfer, but survives the failure modes a chain of sublinks
// multiplies: a torn or stalled sublink is retried with backoff and the
// continuation session resumes at the sink's acked byte offset rather
// than restarting, and a depot that stays dead is routed around by
// recomputing the minimax path on the surviving topology — falling back
// to a direct source→destination connection when no relay route
// survives. Transient and fatal errors are told apart with
// retry.Classify: a protocol violation or verification mismatch aborts
// immediately, while path events burn attempts until the policy is
// exhausted (the returned error then wraps retry.ErrExhausted).
func (s *System) TransferReliable(srcHost, dstHost string, size int64, pol RecoveryPolicy) (TransferResult, error) {
	if size <= 0 {
		return TransferResult{}, fmt.Errorf("core: transfer size %d must be positive", size)
	}
	si, err := s.resolve(srcHost)
	if err != nil {
		return TransferResult{}, err
	}
	di, err := s.resolve(dstHost)
	if err != nil {
		return TransferResult{}, err
	}
	pol = pol.withDefaults()
	path, err := s.Planner.Path(si, di)
	if err != nil {
		return TransferResult{}, err
	}
	if path == nil {
		// No forecast route: the recovery layer's job is delivery, so
		// degrade to direct rather than refuse.
		path = []int{si, di}
	}

	r := s.cfg.Metrics
	start := time.Now()
	// One trace id spans every attempt, resume continuation, and
	// failover reroute of this logical transfer.
	tid := mintTrace()
	// Under Integrity one session id spans them too: the sink keys its
	// cross-attempt state (the running end-to-end digest) by session
	// identity, so every continuation must present the same id. Without
	// a digest each attempt keeps its own id — the trace id alone is
	// the correlation key.
	var (
		shared    wire.SessionID
		integrity []wire.Option
	)
	if s.cfg.Integrity {
		id, err := wire.NewSessionID()
		if err != nil {
			return TransferResult{}, err
		}
		shared = id
		integrity = integrityOptions(depot.PatternDigest(id, size))
		defer s.digests.drop(id)
	}
	var (
		acked      int64 // bytes the sink has verified and acked
		lastErr    error
		lastID     string
		noProgress int
	)
	for attempt := 0; attempt < pol.Retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			r.Counter(MetricRetryAttempts).Inc()
			s.emitRecovery(lastID, tid, si, obs.KindRetry, obs.Event{
				Bytes:  acked,
				Detail: fmt.Sprintf("%s: %v", retry.Classify(lastErr), lastErr),
			})
			if err := pol.Retry.Sleep(context.Background(), attempt-1); err != nil {
				break
			}
		}
		if acked > 0 {
			// Bytes the continuation session does not re-send.
			r.Counter(MetricResumedBytes).Add(acked)
		}
		got, id, aerr := s.attemptResumable(path, shared, size, acked, pol.AttemptTimeout, tid, integrity)
		acked += got
		lastID = id
		if aerr == nil && acked == size {
			out := s.result(size, time.Since(start), path)
			s.observeTransfer(out, nil)
			return out, nil
		}
		if aerr == nil {
			// The chain tore after every write was buffered: no send
			// error, a clean partial delivery. Retryable by definition.
			aerr = retry.AsTransient(fmt.Errorf("core: sink acked %d of %d bytes", acked, size))
		}
		lastErr = aerr
		if retry.IsFatal(aerr) {
			r.Counter(MetricRecoveryFatal).Inc()
			s.observeTransfer(TransferResult{}, aerr)
			return TransferResult{}, fmt.Errorf("core: fatal: %w", aerr)
		}
		if errors.Is(aerr, wire.ErrDigest) {
			// The whole-object digest failed: some delivered byte is
			// suspect even though every chunk checksum passed, so the
			// acked prefix can no longer be trusted. Start the object
			// over (the sink's digest state is already gone).
			acked = 0
		}
		if got > 0 {
			noProgress = 0
		} else {
			noProgress++
		}
		if pol.Failover && noProgress >= pol.FailoverAfter && len(path) > 2 {
			path = s.failoverPath(si, di, path, lastID, tid)
			noProgress = 0
		}
	}
	err = fmt.Errorf("core: %w after %d attempts: %w", retry.ErrExhausted, pol.Retry.MaxAttempts, lastErr)
	s.observeTransfer(TransferResult{}, err)
	return TransferResult{}, err
}

// drainWindow is how long a torn attempt waits for the sink's report of
// in-flight bytes that may still land after the send side failed.
const drainWindow = 500 * time.Millisecond

// attemptResumable runs one session along path, streaming the pattern
// from absolute byte offset and returning the bytes the sink reported
// for this session (its ack), the session id, and the attempt's error.
// A non-zero shared id pins the session's identity (integrity-enabled
// transfers reuse one id across attempts); the zero id lets each
// attempt mint its own. Partial progress and an error frequently
// coexist: a chain that dies mid-stream still delivered its prefix.
func (s *System) attemptResumable(path []int, shared wire.SessionID, size, offset int64, timeout time.Duration, tid wire.TraceID, extra []wire.Option) (int64, string, error) {
	src, dst := path[0], path[len(path)-1]
	route := make([]wire.Endpoint, 0, len(path)-2)
	for _, h := range path[1 : len(path)-1] {
		route = append(route, s.endpoints[h])
	}
	// Per-hop connect timeout on the first sublink; depots bound their
	// own onward dials.
	dial := lsl.TimeoutDialer(s.dialerFor(src), timeout)
	opts := append(traceOpt(tid), extra...)
	var (
		sess *lsl.Session
		err  error
	)
	if shared != (wire.SessionID{}) {
		sess, err = lsl.OpenAtID(dial, shared, s.endpoints[src], s.endpoints[dst], route, offset, opts...)
	} else {
		sess, err = lsl.OpenAt(dial, s.endpoints[src], s.endpoints[dst], route, offset, opts...)
	}
	if err != nil {
		return 0, "", err
	}
	id := sess.ID().String()
	first := dst
	if len(path) > 2 {
		first = path[1]
	}
	s.emitHop0(sess.ID(), tid, src, obs.KindConnect, obs.Event{Peer: s.endpoints[first].String(), Bytes: offset})
	ch := s.registerWaiter(sess.ID())
	defer s.dropWaiter(sess.ID())

	// A stalled chain must not pin the sender forever: every write this
	// attempt makes races the same deadline.
	deadline := time.Now().Add(timeout)
	_ = sess.SetWriteDeadline(deadline)
	s.emitHop0(sess.ID(), tid, src, obs.KindFirstByte, obs.Event{})
	werr := writeSessionPatternFrom(sess, offset, size)
	sess.Close()
	if werr == nil {
		s.emitHop0(sess.ID(), tid, src, obs.KindLastByte, obs.Event{Bytes: size - offset})
	}

	// Wait for the sink's report of what actually landed. A cleanly
	// written attempt waits out the deadline for the delivery report —
	// that report IS the success signal. A torn attempt waits only a
	// short drain window: the chain is already down, and only bytes in
	// flight can still reach the sink (they count as acked progress the
	// retry does not re-send).
	settle := time.Until(deadline)
	if werr != nil || settle < drainWindow {
		settle = drainWindow
	}
	// Attempts share one session id, so a late report from an earlier
	// torn attempt can land here. Progress is therefore measured
	// against this attempt's resume offset: a stale report (whose range
	// starts no deeper than offset) can only under-report, never
	// advance the ack past what the sink verified.
	progress := func(res deliverResult) int64 {
		if got := res.offset + res.bytes - offset; got > 0 {
			return got
		}
		return 0
	}
	select {
	case res := <-ch:
		if res.err != nil {
			return progress(res), id, fmt.Errorf("core: sink: %w", res.err)
		}
		if werr != nil && res.offset+res.bytes < size {
			return progress(res), id, fmt.Errorf("core: send: %w", werr)
		}
		return progress(res), id, nil
	case <-time.After(settle):
		if werr != nil {
			return 0, id, fmt.Errorf("core: send: %w", werr)
		}
		return 0, id, retry.AsTransient(fmt.Errorf("core: no sink report within %v", settle))
	}
}

// failoverPath consults the scheduler for a route around the current
// path's failed depots. Dead relays are detected with a transport
// probe (a killed depot's listener refuses); when every probe succeeds
// the fault is byzantine — alive but corrupting or stalling — and all
// current relays are condemned together. The avoided set accumulates
// in the planner query only for this call chain: each failover starts
// from the current path, so a depot exonerated by a replan can return.
func (s *System) failoverPath(si, di int, cur []int, sessID string, tid wire.TraceID) []int {
	avoid := make(map[int]bool)
	var dead []int
	for _, h := range cur[1 : len(cur)-1] {
		if !s.probeHost(si, h) {
			dead = append(dead, h)
		}
	}
	if len(dead) == 0 {
		dead = append(dead, cur[1:len(cur)-1]...)
	}
	for _, h := range dead {
		avoid[h] = true
	}
	next, err := s.Planner.PathAvoiding(si, di, avoid)
	if err != nil || len(next) < 2 {
		next = []int{si, di}
	}
	names := make([]string, 0, len(dead))
	for _, h := range dead {
		names = append(names, s.Topo.Hosts[h].Name)
	}
	sort.Strings(names)
	s.cfg.Metrics.Counter(MetricFailovers).Inc()
	firstHop := next[len(next)-1]
	if len(next) > 2 {
		firstHop = next[1]
	}
	s.emitRecovery(sessID, tid, si, obs.KindFailover, obs.Event{
		Peer:   s.endpoints[firstHop].String(),
		Detail: "avoiding " + strings.Join(names, ","),
	})
	return next
}

// probeHost reports whether host h accepts transport connections from
// host from.
func (s *System) probeHost(from, h int) bool {
	conn, err := s.Net.Dial(s.hostAddr(from), s.endpoints[h].String())
	if err != nil {
		return false
	}
	conn.Close()
	return true
}

// emitRecovery reports a recovery decision as a hop-0 trace event.
// Unlike emitHop0 it tolerates an empty session id (a retry after a
// failed dial has no session yet) — the trace id still correlates the
// event with the logical transfer it belongs to.
func (s *System) emitRecovery(sessID string, tid wire.TraceID, src int, kind string, e obs.Event) {
	e.Kind = kind
	e.Session = sessID
	if !tid.IsZero() {
		e.Trace = tid.String()
	}
	e.Hop = 0
	e.Node = s.endpoints[src].String()
	obs.Emit(s.cfg.Trace, e)
}

// writeSessionPatternFrom streams the session's deterministic pattern
// for absolute object offsets [from, size) — through the chunk framer
// when the session is checksummed. The copy buffer is pooled with the
// depot pumps and sink loops.
func writeSessionPatternFrom(sess *lsl.Session, from, size int64) error {
	w := sessionWriter(sess)
	bp := bufpool.Get()
	defer bufpool.Put(bp)
	buf := *bp
	written := from
	for written < size {
		n := int64(len(buf))
		if remaining := size - written; remaining < n {
			n = remaining
		}
		depot.FillPattern(buf[:n], sess.ID(), written)
		m, err := w.Write(buf[:n])
		written += int64(m)
		if err != nil {
			return err
		}
	}
	return nil
}
