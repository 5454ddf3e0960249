package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/netlogistics/lsl/internal/depot"
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
	path, err := s.routeOrDirect(srcHost, dstHost)
	if err != nil {
		return TransferResult{}, err
	}

	start := time.Now()
	si, di := path[0], path[len(path)-1]
	// One trace id spans every attempt, resume continuation, and
	// failover reroute of this logical transfer.
	o := Object{Trace: mintTrace(), Dst: s.endpoints[di], Size: size}
	// Under Integrity one session id spans them too: the sink keys its
	// cross-attempt state (the running end-to-end digest) by session
	// identity, so every continuation must present the same id. Without
	// a digest each attempt keeps its own id — the trace id alone is
	// the correlation key.
	if s.cfg.Integrity {
		id, err := wire.NewSessionID()
		if err != nil {
			return TransferResult{}, err
		}
		o.ID = id
		o.Opts = integrityOptions(depot.PatternDigest(id, size))
		defer s.sink.Retire(id, o.Trace)
	}
	route, err := s.engine(si, di).Send(s.ctx, o, Route{Via: s.route(path)}, pol)
	return s.observed(s.result(size, time.Since(start), s.pathOf(si, route, di)), err)
}

// failoverPath consults the scheduler for a route around the current
// path's failed depots. Dead relays are detected with a transport
// probe (a killed depot's listener refuses); when every probe succeeds
// the fault is byzantine — alive but corrupting or stalling — and all
// current relays are condemned together. The avoided set accumulates
// in the planner query only for this call chain: each failover starts
// from the current path, so a depot exonerated by a replan can return.
func (s *System) failoverPath(cur []int, id wire.SessionID, tid wire.TraceID) []int {
	si, di := cur[0], cur[len(cur)-1]
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
	emitHop0(s.cfg.Trace, s.endpoints[si], id, tid, obs.KindFailover, obs.Event{
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
