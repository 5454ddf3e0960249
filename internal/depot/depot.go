// Package depot implements the logistical storage depot: a user-level
// session-routing process that accepts LSL sessions, determines the
// next hop from the loose source route or its route table, forwards the
// payload through a bounded pipeline buffer, and delivers sessions
// addressed to itself to a local handler.
//
// The bounded buffer is the heart of the logistical effect's mechanics:
// a depot absorbs up to its pipeline's worth of bytes from a fast
// upstream sublink while the downstream sublink drains at its own pace;
// when the pipeline fills, back-pressure propagates upstream exactly as
// in Figure 5 of the paper. The depot reports that mechanism live
// through the obs layer: pipeline occupancy as a gauge, per-hop bytes
// and stall time from the pump, and per-session hop-indexed trace
// events.
package depot

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netlogistics/lsl/internal/bufpool"
	"github.com/netlogistics/lsl/internal/cache"
	"github.com/netlogistics/lsl/internal/fairshare"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/retry"
	"github.com/netlogistics/lsl/internal/wire"
)

// DefaultPipelineBytes matches the paper's 32 MB depot pipeline
// (8 MB kernel send + 8 MB kernel receive + matching user buffers).
const DefaultPipelineBytes = 32 << 20

// DefaultQueueTimeout bounds an admission-queue wait when
// Config.QueueTimeout is zero: long enough to ride out a typical
// session draining, short enough that an initiator's retry policy —
// not the queue — owns multi-second recovery.
const DefaultQueueTimeout = 10 * time.Second

// chunkSize is the unit of the forwarding pipeline. It equals the
// pooled buffer size so every hot loop draws from one shared pool.
const chunkSize = bufpool.ChunkSize

// Handler consumes sessions addressed to this depot's host.
type Handler func(s *lsl.Session) error

// Config parameterizes a depot server.
type Config struct {
	// Self is this depot's own endpoint, used to recognize sessions
	// addressed to it.
	Self wire.Endpoint
	// Dial opens onward transport connections.
	Dial lsl.Dialer
	// Routes resolves a destination to the next-hop address when a
	// session carries no source route. It may be nil, in which case the
	// depot consults the controller-pushed route table (if any) and then
	// forwards directly to the destination.
	Routes func(dst wire.Endpoint) (next wire.Endpoint, ok bool)
	// AcceptControl permits TypeControl sessions: a controller may push
	// versioned route tables into this depot. When false (the default),
	// control sessions are refused.
	AcceptControl bool
	// TableDriven makes routing strict: a session with no source route,
	// no static Routes answer, and no installed-table entry for its
	// destination is refused with ErrNoRoute instead of being dialed
	// directly. This is the paper's controller-owned routing mode — a
	// depot never improvises a path the control plane didn't push.
	TableDriven bool
	// MaxHops, when positive, refuses any session whose OptHopIndex has
	// already reached this many depot traversals — loop protection for
	// table-driven forwarding (transiently inconsistent tables can
	// loop) and for malicious or buggy source routes alike.
	MaxHops int
	// Local handles sessions addressed to Self, and status queries
	// (wire.TypeStatus), which a Sink's Handle answers. Any other
	// handler must answer or refuse a status query, or close it: its
	// asker waits. Nil means count and discard the payload, and refuse
	// status queries.
	Local Handler
	// PipelineBytes bounds per-session buffering (0 selects
	// DefaultPipelineBytes).
	PipelineBytes int
	// StoreBytes bounds the asynchronous-session store (0 selects
	// DefaultStoreBytes).
	StoreBytes int64
	// SpoolDir, when non-empty, gives the store a durable disk tier: a
	// content-addressed spool directory that payloads spill to when the
	// in-memory budget overflows, and that a restarted depot re-indexes
	// so stored sessions survive a crash (torn writes are detected by
	// the digest in the file name and dropped).
	SpoolDir string
	// SpoolBytes bounds the spool directory (0 selects
	// DefaultSpoolBytes). Ignored without SpoolDir.
	SpoolBytes int64
	// IdleTimeout, when positive, aborts a session whose transport
	// makes no progress for this long (requires the net.Conn to
	// support read deadlines, which TCP and the emulated network both
	// do). It protects a depot's pipeline buffers from peers that hang
	// without closing.
	IdleTimeout time.Duration
	// MaxSessions, when positive, makes the depot refuse sessions
	// beyond this concurrency — the load-based session negotiation the
	// paper proposes for future work.
	MaxSessions int
	// QueueDepth, when positive alongside MaxSessions, admits up to this
	// many over-limit sessions into a bounded wait queue instead of
	// refusing them outright: transient bursts ride out a slot becoming
	// free, and only sustained overload (queue full, or QueueTimeout
	// exceeded) is refused. Zero keeps the legacy immediate refusal.
	QueueDepth int
	// QueueTimeout bounds how long a queued session waits for a slot
	// before being refused (0 selects DefaultQueueTimeout).
	QueueTimeout time.Duration
	// FairShare, when non-nil, makes every data-path pump acquire credit
	// from this weighted DRR scheduler before forwarding each chunk, so
	// concurrent sessions share the depot's downstream bandwidth in
	// proportion to the weight carried in their OptSessionWeight. One
	// scheduler models one contended trunk; sharing it across depots
	// models a shared sublink.
	FairShare *fairshare.Scheduler
	// ForwardRetry retries a failed onward dial with backoff before
	// giving up on a session. The zero policy dials exactly once.
	ForwardRetry retry.Policy
	// FailoverDirect, when set, makes the depot dial the session's
	// final destination directly after the next hop stays unreachable
	// through ForwardRetry — hop-level graceful degradation that trades
	// the rest of the chain for delivery.
	FailoverDirect bool
	// Faults, when non-nil, deterministically injects failures into the
	// data path (refuse-connect, drop-after-N-bytes, stall) so recovery
	// paths are testable. Production configs leave it nil.
	Faults *FaultInjector
	// Logf, when non-nil, receives diagnostic messages.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives the depot's counters, the
	// pipeline-occupancy back-pressure gauge, and the sublink
	// throughput / chunk-latency / session-duration histograms. A
	// registry may be shared by several depots; its figures are then
	// aggregates, while Stats() stays per-server.
	Metrics *obs.Registry
	// Trace, when non-nil, receives hop-indexed session lifecycle
	// events (accept/connect/first-byte/last-byte/deliver/refused/
	// error) — the structured replacement for reading Logf output.
	Trace obs.Sink
	// Sessions, when non-nil, tracks in-flight sessions with live
	// per-hop byte and pipeline-occupancy progress, for the /sessions
	// debug endpoint.
	Sessions *obs.SessionTable
	// Cache, when non-nil, gives the depot a content-addressed chunk
	// cache: digest-stamped payloads it forwards populate it, cache
	// probes (TypeCacheProbe) advertise what it holds, serve directives
	// (TypeCacheServe) and the forwarding short-circuit answer repeat
	// transfers from it instead of pulling the bytes upstream again.
	// The cache may be shared between co-located servers; its metrics
	// ride whatever registry it was built with.
	Cache *cache.Cache
}

// Stats are the depot's cumulative counters.
type Stats struct {
	Accepted       int64
	Refused        int64
	Forwarded      int64
	Delivered      int64
	Generated      int64
	Stored         int64
	Fetched        int64
	FetchMisses    int64
	BytesForwarded int64
	BytesDelivered int64
	BytesStored    int64
	BytesFetched   int64
	Errors         int64
	ForwardRetries int64
	Failovers      int64
	TablePushes    int64
	StalePushes    int64
	TableHits      int64
	TableMisses    int64
	HopLimited     int64
	Queued         int64
	QueueTimeouts  int64
	ChecksumErrors int64
}

// stat holds the Stats fields as atomics, so hot-path accounting never
// serializes concurrent sessions.
type stat struct {
	accepted       atomic.Int64
	refused        atomic.Int64
	forwarded      atomic.Int64
	delivered      atomic.Int64
	generated      atomic.Int64
	stored         atomic.Int64
	fetched        atomic.Int64
	fetchMisses    atomic.Int64
	bytesForwarded atomic.Int64
	bytesDelivered atomic.Int64
	bytesStored    atomic.Int64
	bytesFetched   atomic.Int64
	errors         atomic.Int64
	forwardRetries atomic.Int64
	failovers      atomic.Int64
	tablePushes    atomic.Int64
	stalePushes    atomic.Int64
	tableHits      atomic.Int64
	tableMisses    atomic.Int64
	hopLimited     atomic.Int64
	queued         atomic.Int64
	queueTimeouts  atomic.Int64
	checksumErrors atomic.Int64
}

// metrics are the depot's shared-registry instruments, resolved once at
// construction. All fields are nil (no-op) when Config.Metrics is nil.
type metrics struct {
	accepted     *obs.Counter
	refused      *obs.Counter
	errors       *obs.Counter
	bytesFwd     *obs.Counter
	bytesDlv     *obs.Counter
	stallNanos   *obs.Counter
	fwdRetries   *obs.Counter
	failovers    *obs.Counter
	faults       *obs.Counter
	tablePushes  *obs.Counter
	stalePushes  *obs.Counter
	tableHits    *obs.Counter
	tableMisses  *obs.Counter
	hopLimited   *obs.Counter
	queued       *obs.Counter
	queueTOs     *obs.Counter
	checksumErrs *obs.Counter
	reindexDrops *obs.Counter
	kernelRelays *obs.Counter
	tableEpoch   *obs.Gauge
	occupancy    *obs.Gauge
	active       *obs.Gauge
	stripes      *obs.Gauge
	paths        *obs.Gauge
	chunkWrite   *obs.Histogram
	throughput   *obs.Histogram
	sessionDur   *obs.Histogram
}

// Metric and gauge names published to Config.Metrics.
//
// MetricPipelineOccupancy sums, over live sessions, the payload queued
// in pump pipelines and — sampled once per relay window, on Linux — the
// payload a kernel-relayed session has parked in this depot's socket
// buffers. MetricPumpStallNanos is pump-only: a kernel-relayed session
// has no user-space pipeline to stall on and adds nothing to it.
const (
	MetricSessionsAccepted  = "depot_sessions_accepted_total"
	MetricSessionsRefused   = "depot_sessions_refused_total"
	MetricSessionErrors     = "depot_session_errors_total"
	MetricBytesForwarded    = "depot_bytes_forwarded_total"
	MetricBytesDelivered    = "depot_bytes_delivered_total"
	MetricPumpStallNanos    = "depot_pump_stall_nanos_total"
	MetricPipelineOccupancy = "depot_pipeline_occupancy_bytes"
	MetricActiveSessions    = "depot_active_sessions"
	MetricActiveStripes     = "depot_active_stripes"
	MetricActivePaths       = "depot_active_paths"
	MetricChunkWriteSeconds = "depot_chunk_write_seconds"
	MetricSublinkMbps       = "depot_sublink_throughput_mbps"
	MetricSessionSeconds    = "depot_session_seconds"
	MetricForwardRetries    = "depot_forward_retries_total"
	MetricFailovers         = "depot_failovers_total"
	MetricFaultsInjected    = "depot_faults_injected_total"
	MetricTableEpoch        = "depot_table_epoch"
	MetricTablePushes       = "depot_table_pushes_total"
	MetricStalePushes       = "depot_table_pushes_stale_total"
	MetricTableHits         = "depot_table_hits_total"
	MetricTableMisses       = "depot_table_misses_total"
	MetricHopLimited        = "depot_hop_limit_refused_total"
	MetricAdmissionQueued   = "depot_admission_queued_total"
	MetricAdmissionTimeouts = "depot_admission_timeouts_total"
	MetricChecksumErrors    = "depot_checksum_errors_total"
	// MetricSpoolReindexDropped counts spool files crash recovery
	// deleted instead of re-indexing (interrupted .tmp writes, damaged
	// or torn .p payloads). Set once at startup; a non-zero value after
	// a restart means durable state was lost between runs.
	MetricSpoolReindexDropped = "depot_spool_reindex_dropped_total"
	// MetricRelayKernelSessions counts forwarded data sessions relayed
	// in the kernel (no byte-touching stage armed, TCP on both sides).
	// Against depot_sessions_accepted_total it gives the share of
	// sessions that leave the fast path for the user-space pump.
	MetricRelayKernelSessions = "depot_relay_kernel_sessions_total"
	// MetricPooledBuffers gauges the pooled chunk and frame buffers out
	// of bufpool, process-wide: what pumps have queued or in hand. Zero
	// when idle; a floor that creeps up is a leak on some error path.
	MetricPooledBuffers = "depot_pooled_buffers_outstanding"
)

func newMetrics(r *obs.Registry) metrics {
	r.GaugeFunc(MetricPooledBuffers, bufpool.Outstanding)
	return metrics{
		accepted:     r.Counter(MetricSessionsAccepted),
		refused:      r.Counter(MetricSessionsRefused),
		errors:       r.Counter(MetricSessionErrors),
		bytesFwd:     r.Counter(MetricBytesForwarded),
		bytesDlv:     r.Counter(MetricBytesDelivered),
		stallNanos:   r.Counter(MetricPumpStallNanos),
		fwdRetries:   r.Counter(MetricForwardRetries),
		failovers:    r.Counter(MetricFailovers),
		faults:       r.Counter(MetricFaultsInjected),
		tablePushes:  r.Counter(MetricTablePushes),
		stalePushes:  r.Counter(MetricStalePushes),
		tableHits:    r.Counter(MetricTableHits),
		tableMisses:  r.Counter(MetricTableMisses),
		hopLimited:   r.Counter(MetricHopLimited),
		queued:       r.Counter(MetricAdmissionQueued),
		queueTOs:     r.Counter(MetricAdmissionTimeouts),
		checksumErrs: r.Counter(MetricChecksumErrors),
		reindexDrops: r.Counter(MetricSpoolReindexDropped),
		kernelRelays: r.Counter(MetricRelayKernelSessions),
		tableEpoch:   r.Gauge(MetricTableEpoch),
		occupancy:    r.Gauge(MetricPipelineOccupancy),
		active:       r.Gauge(MetricActiveSessions),
		stripes:      r.Gauge(MetricActiveStripes),
		paths:        r.Gauge(MetricActivePaths),
		// 100 µs .. ~1.6 s write latencies.
		chunkWrite: r.Histogram(MetricChunkWriteSeconds, obs.ExpBuckets(1e-4, 2, 15)),
		// 1 .. ~16k Mbit/s sublink throughput.
		throughput: r.Histogram(MetricSublinkMbps, obs.ExpBuckets(1, 2, 15)),
		// 1 ms .. ~1000 s session durations.
		sessionDur: r.Histogram(MetricSessionSeconds, obs.ExpBuckets(1e-3, 2, 20)),
	}
}

// Server is a running depot.
type Server struct {
	cfg    Config
	active atomic.Int64
	// admit is the MaxSessions slot semaphore (nil when unlimited):
	// reserving a slot and counting it are one channel send, so
	// concurrent arrivals can never both pass a load check that only
	// one of them fits under.
	admit   chan struct{}
	waiting atomic.Int64 // sessions currently in the admission queue
	store   *sessionStore
	routes  atomic.Pointer[routeTable]
	wg      sync.WaitGroup

	st  stat
	met metrics

	closed atomic.Bool
	// ctx is the server's root context: Close cancels it, ending the
	// backoff of any onward dial still retrying.
	ctx    context.Context
	cancel context.CancelFunc
}

// New validates the configuration and builds a depot server.
func New(cfg Config) (*Server, error) {
	if cfg.Dial == nil {
		return nil, errors.New("depot: Config.Dial is required")
	}
	if cfg.Self.IsZero() {
		return nil, errors.New("depot: Config.Self is required")
	}
	if cfg.PipelineBytes <= 0 {
		cfg.PipelineBytes = DefaultPipelineBytes
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = DefaultQueueTimeout
	}
	store, err := newSessionStore(cfg.StoreBytes, cfg.SpoolDir, cfg.SpoolBytes)
	if err != nil {
		return nil, err
	}
	srv := &Server{
		cfg:   cfg,
		store: store,
		met:   newMetrics(cfg.Metrics),
	}
	if dropped := store.spoolReindexDropped(); dropped > 0 {
		srv.met.reindexDrops.Add(dropped)
		srv.logf("depot %s: spool re-index dropped %d unrecoverable file(s) from %s",
			cfg.Self, dropped, cfg.SpoolDir)
	}
	if cfg.MaxSessions > 0 {
		srv.admit = make(chan struct{}, cfg.MaxSessions)
	}
	srv.ctx, srv.cancel = context.WithCancel(context.Background())
	return srv, nil
}

// Stats returns a snapshot of the counters. Each field is read
// atomically; fields may be mutually skewed by in-flight sessions.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:       s.st.accepted.Load(),
		Refused:        s.st.refused.Load(),
		Forwarded:      s.st.forwarded.Load(),
		Delivered:      s.st.delivered.Load(),
		Generated:      s.st.generated.Load(),
		Stored:         s.st.stored.Load(),
		Fetched:        s.st.fetched.Load(),
		FetchMisses:    s.st.fetchMisses.Load(),
		BytesForwarded: s.st.bytesForwarded.Load(),
		BytesDelivered: s.st.bytesDelivered.Load(),
		BytesStored:    s.st.bytesStored.Load(),
		BytesFetched:   s.st.bytesFetched.Load(),
		Errors:         s.st.errors.Load(),
		ForwardRetries: s.st.forwardRetries.Load(),
		Failovers:      s.st.failovers.Load(),
		TablePushes:    s.st.tablePushes.Load(),
		StalePushes:    s.st.stalePushes.Load(),
		TableHits:      s.st.tableHits.Load(),
		TableMisses:    s.st.tableMisses.Load(),
		HopLimited:     s.st.hopLimited.Load(),
		Queued:         s.st.queued.Load(),
		QueueTimeouts:  s.st.queueTimeouts.Load(),
		ChecksumErrors: s.st.checksumErrors.Load(),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// flow is the per-session observability context threaded through the
// data path: who the session is, which hop this depot is, and where to
// report progress. A nil *flow is valid everywhere (bare pumps in
// tests, internal copies).
type flow struct {
	srv     *Server
	id      string
	trace   string // hex end-to-end trace id ("" when the header carried none)
	hop     int
	stripe  int               // 0-based stripe index (0 when unstriped)
	stripes int               // header stripe count (1 when unstriped)
	pathIdx int               // 0-based disjoint-route index (0 when single-path)
	paths   int               // header route count (1 when single-path)
	entry   *obs.SessionEntry // may be nil
	fs      *fairshare.Flow   // chunk-credit handle; nil when unscheduled
	first   atomic.Bool       // first payload chunk seen
}

func (f *flow) emit(kind string, e obs.Event) {
	if f == nil || f.srv == nil {
		return
	}
	e.Kind = kind
	e.Session = f.id
	e.Trace = f.trace
	e.Hop = f.hop
	if f.stripes > 1 {
		e.Stripe = obs.StripeOf(f.stripe)
	}
	if f.paths > 1 {
		e.Path = obs.PathOf(f.pathIdx)
	}
	e.Node = f.srv.cfg.Self.String()
	obs.Emit(f.srv.cfg.Trace, e)
}

// track registers the session in the table; the returned cleanup
// removes it.
func (s *Server) track(f *flow, h *wire.Header, typ string, next wire.Endpoint) func() {
	if s.cfg.Sessions == nil {
		return func() {}
	}
	entry := &obs.SessionEntry{
		ID:      h.Session.String(),
		Trace:   f.trace,
		Type:    typ,
		Src:     h.Src.String(),
		Dst:     h.Dst.String(),
		Hop:     f.hop,
		Stripe:  f.stripe,
		Stripes: f.stripes,
		Path:    f.pathIdx,
		Paths:   f.paths,
		Started: time.Now(),
	}
	if !next.IsZero() {
		entry.Next = next.String()
	}
	s.cfg.Sessions.Register(entry)
	f.entry = entry
	return func() { s.cfg.Sessions.Remove(entry) }
}

// Serve accepts sessions from l until the listener fails or Close is
// called. Each session is handled on its own goroutine.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return fmt.Errorf("depot: accept: %w", err)
		}
		if s.closed.Load() {
			conn.Close()
			return nil
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.Handle(conn)
		}()
	}
}

// Close marks the server closed; Serve returns after its listener is
// closed by the caller. In-flight sessions are not interrupted, though
// an onward dial waiting out its retry backoff gives up — use
// Shutdown to wait for them.
func (s *Server) Close() {
	s.closed.Store(true)
	s.cancel()
}

// Shutdown closes the server and waits until every in-flight session
// completes or the timeout elapses. It reports whether the drain
// finished in time. The caller closes the listener.
func (s *Server) Shutdown(timeout time.Duration) bool {
	s.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Handle processes one incoming transport connection synchronously.
// Exported so tests and in-process wiring can drive a depot without a
// listener.
func (s *Server) Handle(conn net.Conn) {
	start := time.Now()
	if s.cfg.Faults.refusing() {
		// A dead depot process behind a live address: the connection is
		// torn down before any protocol exchange.
		s.met.faults.Inc()
		s.st.refused.Add(1)
		s.met.refused.Inc()
		conn.Close()
		return
	}
	// The relay plan of a forwarded data session is built from the raw
	// transport: what Handle interposes below would hide its type.
	raw := conn
	if d := s.cfg.IdleTimeout; d > 0 {
		conn = &idleConn{Conn: conn, timeout: d}
	}
	h, err := wire.ReadHeader(conn)
	if err != nil {
		conn.Close()
		s.st.errors.Add(1)
		s.met.errors.Inc()
		s.logf("depot %s: bad header: %v", s.cfg.Self, err)
		return
	}
	f := &flow{srv: s, id: h.Session.String(), hop: h.HopIndex() + 1,
		stripe: h.StripeIndex(), stripes: h.StripeCount(),
		pathIdx: h.PathIndex(), paths: h.PathCount()}
	if tid, ok := h.TraceID(); ok {
		f.trace = tid.String()
	}
	if ungatedTypes>>h.Type&1 != 0 {
		s.handleUngated(conn, h, f)
		return
	}
	release, refusal := s.admitSession(f, h)
	if refusal != "" {
		s.st.refused.Add(1)
		s.met.refused.Inc()
		f.emit(obs.KindRefused, obs.Event{Peer: h.Src.String(), Detail: refusal})
		s.logf("depot %s: refusing session %s (%s)", s.cfg.Self, h.Session, refusal)
		_ = lsl.Refuse(conn, h)
		return
	}
	defer release()
	s.active.Add(1)
	s.met.active.Add(1)
	if f.stripes > 1 {
		// Each sublink chain of a striped session counts once, so the
		// gauge reads "stripe pumps in flight at this depot".
		s.met.stripes.Add(1)
	}
	if f.paths > 1 {
		// Likewise per route: the gauge reads "multipath route sessions
		// in flight at this depot".
		s.met.paths.Add(1)
	}
	defer func() {
		s.active.Add(-1)
		s.met.active.Add(-1)
		if f.stripes > 1 {
			s.met.stripes.Add(-1)
		}
		if f.paths > 1 {
			s.met.paths.Add(-1)
		}
		s.met.sessionDur.Observe(time.Since(start).Seconds())
	}()
	s.st.accepted.Add(1)
	s.met.accepted.Inc()
	f.emit(obs.KindAccept, obs.Event{Peer: h.Src.String()})

	// Under fair sharing, the session's pumps draw chunk credit at the
	// weight its initiator asked for. Join is nil-safe: without a
	// scheduler f.fs stays nil and the pump path costs nothing.
	f.fs = s.cfg.FairShare.Join(h.SessionWeight())
	defer f.fs.Leave()

	sess := &lsl.Session{Conn: s.cfg.Faults.wrap(conn, s.met.faults), Header: h}
	switch h.Type {
	case wire.TypeData:
		err = s.handleData(sess, raw, f)
	case wire.TypeGenerate:
		err = s.handleGenerate(sess, f)
	case wire.TypeMulticast:
		err = s.handleMulticast(sess, f)
	case wire.TypeStore:
		err = s.handleStore(sess, f)
	case wire.TypeFetch:
		err = s.handleFetch(sess)
	case wire.TypeCacheServe:
		err = s.handleCacheServe(sess, f)
	default:
		err = fmt.Errorf("depot: unknown session type %d", h.Type)
		conn.Close()
	}
	if err != nil {
		s.st.errors.Add(1)
		s.met.errors.Inc()
		f.emit(obs.KindError, obs.Event{Detail: err.Error()})
		s.logf("depot %s: session %s: %v", s.cfg.Self, h.Session, err)
	}
}

// ungatedTypes has bit t set for each session type t that bypasses the
// load gate, so a data session pays one test to pass them all.
const ungatedTypes uint64 = 1<<wire.TypeControl | 1<<wire.TypeCacheProbe | 1<<wire.TypeStatus

// handleUngated serves the sessions no admission gate may hold: control
// pushes (a loaded depot must still hear the controller whose tables
// could shed the load), cache probes (how load gets shed to begin with)
// and status queries (a loaded sink must still answer its senders, or
// they time out and retry into it). None carries payload to relay. A
// depot with no Local sink refuses status queries.
func (s *Server) handleUngated(conn net.Conn, h *wire.Header, f *flow) {
	if h.Type == wire.TypeStatus && s.cfg.Local == nil {
		s.st.refused.Add(1)
		s.met.refused.Inc()
		f.emit(obs.KindRefused, obs.Event{Peer: h.Src.String(), Detail: "no sink"})
		_ = lsl.Refuse(conn, h)
		return
	}
	s.st.accepted.Add(1)
	s.met.accepted.Inc()
	f.emit(obs.KindAccept, obs.Event{Peer: h.Src.String()})
	var err error
	switch h.Type {
	case wire.TypeControl:
		err = s.handleControl(conn, h, f)
	case wire.TypeCacheProbe:
		err = s.handleCacheProbe(conn, h, f)
	default:
		err = s.cfg.Local(&lsl.Session{Conn: conn, Header: h})
	}
	if err != nil {
		s.st.errors.Add(1)
		s.met.errors.Inc()
		f.emit(obs.KindError, obs.Event{Detail: err.Error()})
		s.logf("depot %s: session %s of type %d: %v", s.cfg.Self, h.Session, h.Type, err)
	}
}

// admitSession reserves a MaxSessions slot for the session, waiting in
// the bounded admission queue when one is configured. It returns a
// release function and an empty refusal reason on success; a non-empty
// refusal ("load" — no slot and no queue room — or "queue timeout")
// means the session must be refused. Reserving a slot is a single
// channel send, so concurrent arrivals can never both clear a limit
// that only has room for one of them.
func (s *Server) admitSession(f *flow, h *wire.Header) (release func(), refusal string) {
	if s.admit == nil {
		return func() {}, ""
	}
	release = func() { <-s.admit }
	select {
	case s.admit <- struct{}{}:
		return release, ""
	default:
	}
	if s.cfg.QueueDepth <= 0 {
		return nil, "load"
	}
	if s.waiting.Add(1) > int64(s.cfg.QueueDepth) {
		s.waiting.Add(-1)
		return nil, "load"
	}
	defer s.waiting.Add(-1)
	t0 := time.Now()
	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case s.admit <- struct{}{}:
		wait := time.Since(t0)
		s.st.queued.Add(1)
		s.met.queued.Inc()
		f.emit(obs.KindQueued, obs.Event{Peer: h.Src.String(),
			Detail: fmt.Sprintf("admission wait %s", wait.Round(time.Millisecond))})
		return release, ""
	case <-timer.C:
		s.st.queueTimeouts.Add(1)
		s.met.queueTOs.Inc()
		return nil, "queue timeout"
	}
}

// dialOnward opens the next sublink, retrying transient dial failures
// under Config.ForwardRetry. Every extra attempt is counted and traced,
// so chain-level recovery is visible hop by hop.
func (s *Server) dialOnward(next wire.Endpoint, f *flow) (net.Conn, error) {
	var out net.Conn
	err := s.cfg.ForwardRetry.Do(s.ctx, func(attempt int) error {
		if attempt > 0 {
			s.st.forwardRetries.Add(1)
			s.met.fwdRetries.Inc()
			f.emit(obs.KindRetry, obs.Event{Peer: next.String(), Detail: fmt.Sprintf("dial attempt %d", attempt+1)})
		}
		conn, derr := s.cfg.Dial.Dial(next.String())
		if derr != nil {
			return derr
		}
		out = conn
		return nil
	})
	return out, err
}

// nextHop determines where a session goes next: the head of its source
// route, a static Routes answer, a controller-pushed table entry, or —
// outside TableDriven mode — directly to the destination. local=true
// means the session is addressed to this depot. Routing refusals
// (ErrNoRoute, ErrHopLimit) come back as typed errors the handlers
// convert into protocol-level refusals.
func (s *Server) nextHop(h *wire.Header) (next wire.Endpoint, rest []wire.Endpoint, local bool, err error) {
	if opt, found := h.Option(wire.OptSourceRoute); found {
		hops, perr := wire.ParseSourceRoute(opt)
		if perr != nil {
			return wire.Endpoint{}, nil, false, perr
		}
		if len(hops) > 0 {
			return s.checkTTL(h, hops[0], hops[1:])
		}
	}
	if h.Dst == s.cfg.Self {
		return wire.Endpoint{}, nil, true, nil
	}
	if s.cfg.Routes != nil {
		if hop, ok := s.cfg.Routes(h.Dst); ok {
			if hop == s.cfg.Self {
				return wire.Endpoint{}, nil, true, nil
			}
			return s.checkTTL(h, hop, nil)
		}
	}
	if s.cfg.TableDriven || s.routes.Load() != nil {
		if hop, ok := s.lookupRoute(h.Dst); ok {
			if hop == s.cfg.Self {
				return wire.Endpoint{}, nil, true, nil
			}
			return s.checkTTL(h, hop, nil)
		}
		if s.cfg.TableDriven {
			return wire.Endpoint{}, nil, false, fmt.Errorf("%w: %s", ErrNoRoute, h.Dst)
		}
	}
	return s.checkTTL(h, h.Dst, nil)
}

// checkTTL vets a forwarding decision against the hop limit: a session
// that has already traversed Config.MaxHops depots is refused instead
// of forwarded, bounding any loop a transiently inconsistent route
// table (or a pathological source route) could form.
func (s *Server) checkTTL(h *wire.Header, next wire.Endpoint, rest []wire.Endpoint) (wire.Endpoint, []wire.Endpoint, bool, error) {
	if s.cfg.MaxHops > 0 && h.HopIndex() >= s.cfg.MaxHops {
		return wire.Endpoint{}, nil, false, fmt.Errorf("%w: %d hops traversed, limit %d", ErrHopLimit, h.HopIndex(), s.cfg.MaxHops)
	}
	return next, rest, false, nil
}

// forwardHeader rebuilds the header for the next hop, replacing the
// source-route option with the remaining hops and stamping this node's
// hop index so the next depot knows its position in the chain.
func forwardHeader(h *wire.Header, rest []wire.Endpoint, hop int) *wire.Header {
	out := &wire.Header{
		Version: h.Version,
		Type:    h.Type,
		Session: h.Session,
		Src:     h.Src,
		Dst:     h.Dst,
	}
	for _, o := range h.Options {
		if o.Kind == wire.OptSourceRoute || o.Kind == wire.OptHopIndex {
			continue
		}
		out.AddOption(o)
	}
	if len(rest) > 0 {
		out.AddOption(wire.SourceRouteOption(rest))
	}
	out.AddOption(wire.HopIndexOption(uint16(hop)))
	return out
}

// handleData forwards or delivers a data session. up is the accepted
// transport as the listener returned it; sess.Conn is the same
// transport behind the idle-deadline and fault-injection wrappers.
func (s *Server) handleData(sess *lsl.Session, up net.Conn, f *flow) error {
	defer sess.Close()
	next, rest, local, err := s.nextHop(sess.Header)
	if err != nil {
		if s.refuseRouting(sess, f, err) {
			return nil
		}
		return err
	}
	if local {
		defer s.track(f, sess.Header, "data", wire.Endpoint{})()
		return s.deliver(sess, f)
	}
	if served, serr := s.cacheShortCircuit(sess, f, next, rest); served {
		return serr
	}
	defer s.track(f, sess.Header, "data", next)()
	out, err := s.dialOnward(next, f)
	if err != nil {
		// The next hop is gone for good. With FailoverDirect the rest
		// of the chain is abandoned and the payload goes straight to the
		// destination — degraded (one long sublink) but delivered.
		if !s.cfg.FailoverDirect || next == sess.Header.Dst {
			return fmt.Errorf("forward dial %s: %w", next, err)
		}
		s.st.failovers.Add(1)
		s.met.failovers.Inc()
		f.emit(obs.KindFailover, obs.Event{Peer: sess.Header.Dst.String(), Detail: "next hop " + next.String() + " unreachable"})
		s.logf("depot %s: next hop %s unreachable, failing over direct to %s", s.cfg.Self, next, sess.Header.Dst)
		next, rest = sess.Header.Dst, nil
		if out, err = s.dialOnward(next, f); err != nil {
			return fmt.Errorf("failover dial %s: %w", next, err)
		}
	}
	plan := s.planRelay(up, sess.Header, f)
	kup, kdn, kernel := plan.kernelPair(out)
	f.emit(obs.KindConnect, obs.Event{Peer: next.String(), Detail: relayDetail(kernel)})
	fh := forwardHeader(sess.Header, rest, f.hop)
	fh.Type = wire.TypeData
	if err := wire.WriteHeader(out, fh); err != nil {
		out.Close()
		return err
	}
	if kernel {
		s.met.kernelRelays.Inc()
		_, err = s.relayKernel(kdn, kup, plan.idle, f)
	} else {
		_, err = s.pump(out, checkedSource(sess, plan.verify, plan.tap), f)
	}
	// The commit only indexes, so whoever sees this session end finds
	// the cache holding it and the session counted. The downstream
	// sublink is closed here, not deferred: before anything slower — a
	// spill, the hash of an object this session completed.
	plan.tap.commit(err == nil)
	s.st.forwarded.Add(1)
	out.Close()
	plan.tap.settle()
	return s.flagCorrupt(sess, f, err)
}

// deliver consumes a session addressed to this depot, counting the
// payload as it flows so partial deliveries and live progress are
// visible.
func (s *Server) deliver(sess *lsl.Session, f *flow) error {
	cc := &countedConn{Conn: sess.Conn, srv: s, f: f}
	inner := &lsl.Session{Conn: cc, Header: sess.Header}
	if off := sess.Header.ResumeOffset(); off > 0 {
		// A continuation session lands mid-object: record where it
		// resumes so the trace timeline shows the stitch point.
		f.emit(obs.KindResume, obs.Event{Bytes: off})
	}
	var err error
	if s.cfg.Local != nil {
		// The local handler owns integrity: a checksummed stream reaches
		// it framed, and any mismatch it detects comes back as a typed
		// error that flagCorrupt converts into a refusal.
		err = s.cfg.Local(inner)
	} else {
		// Count and discard — verifying, on a checksummed session.
		src := checkedSource(inner, sess.Header.Checksummed(), nil)
		bp := src.get()
		for err == nil {
			_, err = src.next(*bp)
		}
		bufpool.Put(bp)
		if errors.Is(err, io.EOF) {
			err = nil
		}
	}
	s.st.delivered.Add(1)
	f.emit(obs.KindDeliver, obs.Event{Bytes: cc.n.Load()})
	return s.flagCorrupt(sess, f, err)
}

// countedConn counts payload bytes as the local handler reads them.
type countedConn struct {
	net.Conn
	srv *Server
	f   *flow
	n   atomic.Int64
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.n.Add(int64(n))
		c.srv.st.bytesDelivered.Add(int64(n))
		c.srv.met.bytesDlv.Add(int64(n))
		c.f.entry.AddBytes(int64(n))
	}
	return n, err
}

// handleGenerate synthesizes the requested bytes and pushes them toward
// the destination as a TypeData session, serving as the evaluation
// harness's traffic source.
func (s *Server) handleGenerate(sess *lsl.Session, f *flow) error {
	defer sess.Close()
	opt, found := sess.Header.Option(wire.OptGenerate)
	if !found {
		return fmt.Errorf("generate session %s: %w", sess.Header.Session, wire.ErrOptionMissing)
	}
	size, err := wire.ParseGenerate(opt)
	if err != nil {
		return err
	}
	next, rest, local, err := s.nextHop(sess.Header)
	if err != nil {
		if s.refuseRouting(sess, f, err) {
			return nil
		}
		return err
	}

	var dst io.WriteCloser
	if local {
		defer s.track(f, sess.Header, "generate", wire.Endpoint{})()
		// Generating to ourselves: deliver into the local handler via
		// an in-process pipe.
		pr, pw := io.Pipe()
		dst = pw
		inner := &lsl.Session{Conn: pipeConn{PipeReader: pr}, Header: sess.Header}
		done := make(chan error, 1)
		go func() { done <- s.deliver(inner, f) }()
		defer func() {
			pw.Close()
			<-done
		}()
	} else {
		defer s.track(f, sess.Header, "generate", next)()
		out, err := s.cfg.Dial.Dial(next.String())
		if err != nil {
			return fmt.Errorf("generate dial %s: %w", next, err)
		}
		defer out.Close()
		f.emit(obs.KindConnect, obs.Event{Peer: next.String()})
		fh := forwardHeader(sess.Header, rest, f.hop)
		fh.Type = wire.TypeData
		// Strip the generate option: downstream sees a plain stream.
		kept := fh.Options[:0]
		for _, o := range fh.Options {
			if o.Kind != wire.OptGenerate {
				kept = append(kept, o)
			}
		}
		fh.Options = kept
		if err := wire.WriteHeader(out, fh); err != nil {
			return err
		}
		dst = out
	}

	// A checksummed generate session frames the synthesized stream so
	// every downstream hop verifies it like any other payload.
	var w io.Writer = dst
	if sess.Header.Checksummed() {
		w = wire.NewFrameWriter(dst)
	}
	bp := bufpool.Get()
	n, err := WritePattern(w, *bp, sess.Header.Session, 0, int64(size))
	bufpool.Put(bp)
	s.st.generated.Add(1)
	s.st.bytesForwarded.Add(n)
	s.met.bytesFwd.Add(n)
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	return nil
}

// idleConn arms a fresh read deadline before every read, so a stalled
// peer eventually errors out instead of pinning the depot's buffers.
type idleConn struct {
	net.Conn
	timeout time.Duration
}

func (c *idleConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

// pipeConn adapts an io.Pipe reader to the minimal net.Conn the local
// delivery path needs.
type pipeConn struct {
	*io.PipeReader
}

func (pipeConn) Write(p []byte) (int, error)      { return 0, errors.New("depot: read-only session") }
func (c pipeConn) Close() error                   { return c.PipeReader.Close() }
func (pipeConn) LocalAddr() net.Addr              { return pipeAddr{} }
func (pipeConn) RemoteAddr() net.Addr             { return pipeAddr{} }
func (pipeConn) SetDeadline(time.Time) error      { return nil }
func (pipeConn) SetReadDeadline(time.Time) error  { return nil }
func (pipeConn) SetWriteDeadline(time.Time) error { return nil }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
