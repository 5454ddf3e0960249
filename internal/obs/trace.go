package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// MetricTraceDrops is the registry counter name for trace events lost
// to sink failures or overflow (JSONSink encode errors, Collector and
// PushSink queue overflow). Tracing never stalls the data path; this
// counter is how that lossiness stays visible.
const MetricTraceDrops = "trace_drops_total"

// Event kinds emitted along the data path. Per hop, a forwarding depot
// emits Accept (header parsed) → Connect (onward transport dialed) →
// FirstByte (first payload chunk moved) → LastByte (payload finished,
// Bytes carries the hop total). The delivering depot emits Accept →
// Deliver. The initiator reports as hop 0.
const (
	KindAccept    = "accept"
	KindConnect   = "connect"
	KindFirstByte = "first-byte"
	KindLastByte  = "last-byte"
	KindDeliver   = "deliver"
	KindRefused   = "refused"
	KindError     = "error"
	KindSample    = "sample" // periodic cumulative byte progress

	// Recovery events. A retried attempt emits Retry (Detail carries
	// the classified cause, Bytes the acked offset it resumes from); a
	// reroute around a failed depot emits Failover (Detail names the
	// avoided depots, Peer the new first hop); a continuation session
	// that skips already-delivered bytes emits Resume at the sink.
	KindRetry    = "retry"
	KindFailover = "failover"
	KindResume   = "resume"
	// KindRoutes marks control-plane route-table activity: a depot
	// installing (or ignoring as stale) a pushed table, or a controller
	// deciding a host's routes changed. Detail carries the epoch and
	// entry count.
	KindRoutes = "routes"
	// KindQueued marks a session admitted after waiting in a depot's
	// bounded admission queue; Detail carries the wait duration, so a
	// timeline shows queue time separately from transfer time.
	KindQueued = "queued"
	// KindCorrupt marks a chunk-checksum or content-digest failure at
	// this node: the payload that arrived did not match its integrity
	// stamp, so the corruption happened on the inbound hop. Detail
	// carries the verifier's description of the damaged frame.
	KindCorrupt = "corrupt"
	// KindCacheHit marks a depot serving payload from its
	// content-addressed cache instead of pulling it from upstream. Node
	// names the serving depot, Bytes carries the range length served,
	// and Detail the byte range and whether the upstream sublink was
	// short-circuited.
	KindCacheHit = "cache-hit"
)

// Event is one structured, per-session trace record — the JSON-lines
// replacement for ad-hoc log calls, and the real-transfer analogue of
// one tcpdump observation in the paper's Figures 4–5 methodology.
type Event struct {
	// Time is the wall-clock instant of the event.
	Time time.Time `json:"t"`
	// Session is the hex session identifier.
	Session string `json:"session"`
	// Trace is the hex end-to-end trace identifier minted by the
	// transfer's initiator and carried in the wire header's OptTraceID.
	// Unlike Session it survives retries, resumes, failover reroutes,
	// and striping: every event of one logical transfer shares it, so it
	// is the correlation key the trace collector assembles timelines by.
	// Empty when the session carried no trace id.
	Trace string `json:"trace,omitempty"`
	// Hop is the position in the depot chain: 0 is the initiator, 1 the
	// first depot, and so on.
	Hop int `json:"hop"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Node is the endpoint of the reporting process.
	Node string `json:"node,omitempty"`
	// Peer is the remote endpoint of the sublink the event concerns
	// (the next hop for Connect, the source for Accept).
	Peer string `json:"peer,omitempty"`
	// Bytes carries cumulative payload bytes where meaningful
	// (LastByte, Deliver, Sample).
	Bytes int64 `json:"bytes,omitempty"`
	// Stripe is the 0-based stripe index for events of a striped
	// session's sublink chains; unstriped sessions leave it nil, so
	// stripe 0 of a striped session remains distinguishable from an
	// unstriped one. Together with Session and Hop it uniquely names
	// one sublink of one stripe. Use StripeOf to build it and
	// StripeIndex to read it.
	Stripe *int `json:"stripe,omitempty"`
	// Path is the 0-based disjoint-route index for events of a
	// multipath transfer's pinned-route sessions; single-path sessions
	// leave it nil, so route 0 of a multipath set remains
	// distinguishable from an ordinary session. Use PathOf to build it
	// and PathIndex to read it.
	Path *int `json:"path,omitempty"`
	// Retries counts connection attempts before success, when the
	// emitter retries.
	Retries int `json:"retries,omitempty"`
	// Detail carries an error message or free-form annotation.
	Detail string `json:"detail,omitempty"`
}

// StripeOf returns a Stripe field value naming the given 0-based
// stripe index. The pointer distinguishes "stripe 0 of a striped
// session" from "not striped" (a nil field).
func StripeOf(k int) *int { return &k }

// StripeIndex returns the event's stripe index and whether the event
// belongs to a striped session at all.
func (e Event) StripeIndex() (int, bool) {
	if e.Stripe == nil {
		return 0, false
	}
	return *e.Stripe, true
}

// PathOf returns a Path field value naming the given 0-based disjoint
// route index. The pointer distinguishes "route 0 of a multipath set"
// from "not multipath" (a nil field).
func PathOf(k int) *int { return &k }

// PathIndex returns the event's disjoint-route index and whether the
// event belongs to a multipath transfer at all.
func (e Event) PathIndex() (int, bool) {
	if e.Path == nil {
		return 0, false
	}
	return *e.Path, true
}

// Sink consumes trace events. Implementations must be safe for
// concurrent Emit calls.
type Sink interface {
	Emit(Event)
}

// SinkFunc adapts a plain function to the Sink interface. The function
// must be safe for concurrent calls, as Sink requires.
type SinkFunc func(Event)

// Emit implements Sink.
func (f SinkFunc) Emit(e Event) { f(e) }

// Emit sends e to sink if it is non-nil, stamping Time when unset.
// Instrumented code calls this instead of branching on configuration.
func Emit(sink Sink, e Event) {
	if sink == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	sink.Emit(e)
}

// JSONSink writes events as JSON lines to an io.Writer, serialized
// under a mutex so concurrent sessions interleave whole lines. Encode
// failures never propagate to the data path (a broken trace file must
// not break the transfer), but they are counted: Drops reports them,
// and CountDrops mirrors them into a registry counter so a silently
// failing trace file is at least visible on /metrics.
type JSONSink struct {
	mu    sync.Mutex
	enc   *json.Encoder
	drops atomic.Int64
	dropC *Counter
}

// NewJSONSink returns a sink writing one JSON object per line to w.
func NewJSONSink(w io.Writer) *JSONSink {
	return &JSONSink{enc: json.NewEncoder(w)}
}

// CountDrops mirrors encode failures into c (typically
// Registry.Counter(MetricTraceDrops)) and returns the sink for
// chaining.
func (s *JSONSink) CountDrops(c *Counter) *JSONSink {
	s.mu.Lock()
	s.dropC = c
	s.mu.Unlock()
	return s
}

// Drops returns the number of events lost to encode failures.
func (s *JSONSink) Drops() int64 { return s.drops.Load() }

// Emit implements Sink.
func (s *JSONSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.enc.Encode(e); err != nil {
		s.drops.Add(1)
		s.dropC.Inc()
	}
}

// MemorySink accumulates events in order of arrival, for tests and
// in-process analysis.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (s *MemorySink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Events returns a copy of everything emitted so far.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Session returns the events of one session, preserving order.
func (s *MemorySink) Session(id string) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Event
	for _, e := range s.events {
		if e.Session == id {
			out = append(out, e)
		}
	}
	return out
}

// OpenTrace opens the trace sinks of a binary's -trace-out and
// -trace-push flags: path, a file the events are appended to as JSON
// lines, and pushURL, a collector's ingest URL they are shipped to;
// either may be empty. Every event either sink drops counts into reg's
// MetricTraceDrops (reg may be nil). The Sink is nil when both are
// empty; close flushes and closes what was opened and is always safe
// to call.
func OpenTrace(path, pushURL string, reg *Registry) (Sink, func(), error) {
	var sinks MultiSink
	closeAll, drops := func() {}, reg.Counter(MetricTraceDrops)
	if path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, closeAll, fmt.Errorf("trace-out: %w", err)
		}
		sinks, closeAll = append(sinks, NewJSONSink(f).CountDrops(drops)), func() { f.Close() }
	}
	if pushURL != "" {
		push, closeFile := NewPushSink(PushConfig{URL: pushURL}).CountDrops(drops), closeAll
		sinks, closeAll = append(sinks, push), func() { closeFile(); push.Close() }
	}
	if len(sinks) == 0 {
		return nil, closeAll, nil
	}
	return sinks, closeAll, nil
}

// MultiSink fans each event out to every member sink.
type MultiSink []Sink

// Emit implements Sink.
func (m MultiSink) Emit(e Event) {
	for _, s := range m {
		if s != nil {
			s.Emit(e)
		}
	}
}
