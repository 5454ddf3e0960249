// Package lsl implements the Logistical Session Layer over any
// net.Conn transport: session establishment with loose source routes,
// the initiator and sink sides of point-to-point data sessions,
// generate-data test requests, and multicast staging sessions.
//
// The session layer binds end-to-end communication to a chain of
// transport connections instead of a single one: the initiator opens a
// connection to the first hop (a depot or the final sink), writes the
// session header, and streams the payload; each depot pops itself off
// the source route and forwards (internal/depot). "Serial, rather than
// parallel, sockets" — Section 2.
package lsl

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync/atomic"
	"time"

	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// Metric names reported by session setup when a registry is installed
// with SetMetrics.
const (
	MetricSessionsOpened   = "lsl_sessions_opened_total"
	MetricSessionsAccepted = "lsl_sessions_accepted_total"
	MetricRefusalsIssued   = "lsl_refusals_issued_total"
	MetricRefusalsSeen     = "lsl_refusals_seen_total"
	MetricDialErrors       = "lsl_dial_errors_total"
	MetricSetupSeconds     = "lsl_session_setup_seconds"
)

// metricsReg is the process-wide registry session setup reports into.
// It is package-level (rather than threaded through every Start call)
// because session establishment has no configuration object; a nil
// registry makes every report a no-op.
var metricsReg atomic.Pointer[obs.Registry]

// SetMetrics installs the registry that session setup (Start, Accept,
// Refuse, Fetch and friends) reports into. Passing nil disables
// reporting. Safe for concurrent use.
func SetMetrics(r *obs.Registry) { metricsReg.Store(r) }

func metrics() *obs.Registry { return metricsReg.Load() }

// setupBuckets spans 100 µs to ~3 s of dial+header latency.
var setupBuckets = obs.ExpBuckets(1e-4, 2, 15)

// Dialer abstracts transport connection establishment so sessions run
// identically over the emulated network, real TCP, or test doubles.
type Dialer interface {
	Dial(address string) (net.Conn, error)
}

// DialerFunc adapts a function to the Dialer interface.
type DialerFunc func(address string) (net.Conn, error)

// Dial implements Dialer.
func (f DialerFunc) Dial(address string) (net.Conn, error) { return f(address) }

// Session is an established LSL session: a byte stream plus the header
// that routed it.
type Session struct {
	net.Conn
	Header *wire.Header
}

// ID returns the session identifier.
func (s *Session) ID() wire.SessionID { return s.Header.Session }

// Payload returns the writer a sender streams payload through: CRC-32C
// frames every depot hop verifies when the header is checksummed, the
// raw stream otherwise.
func (s *Session) Payload() io.Writer {
	if s.Header.Checksummed() {
		return wire.NewFrameWriter(s)
	}
	return s
}

// Spec names one session for Start to open: its header (type, id,
// endpoints, options) and how it reaches its first hop.
type Spec struct {
	// Type is the header type; zero means wire.TypeData.
	Type uint16
	// ID is the session identifier; zero mints a fresh one. The
	// attempts, stripes and path ranges of one object share an id, so
	// the sink reassembles them by absolute offset.
	ID       wire.SessionID
	Src, Dst wire.Endpoint
	// Route is the loose source route of depots between Src and Dst:
	// Start dials Route[0] and the header carries the rest, then Dst.
	Route []wire.Endpoint
	// Entry is the hop to dial when the header carries no source route
	// (Route empty): the first depot of a hop-by-hop or table-driven
	// session, the root of a multicast tree. Zero dials Dst.
	Entry wire.Endpoint
	// Offset > 0 adds the resume-offset option: the payload begins at
	// that absolute byte of the object, as a resumed attempt, a stripe
	// or a path range does.
	Offset int64
	// Options are appended to the header verbatim — the hook initiators
	// thread end-to-end metadata (trace id, weight, integrity, stripe and
	// path coordinates) through without the session layer knowing it.
	// The slice is copied, never aliased into the header.
	Options []wire.Option
}

// check rejects a spec no header can carry: a zero destination, a
// negative offset, a cache serve with no holding depot, or a stripe or
// path coordinate outside its count. Counts above the 16-bit wire
// field cannot reach here: callers check them before building options.
func (sp *Spec) check() error {
	switch {
	case sp.Dst.IsZero():
		return errors.New("lsl: zero destination endpoint")
	case sp.Offset < 0:
		return fmt.Errorf("lsl: negative resume offset %d", sp.Offset)
	case sp.Type == wire.TypeCacheServe && len(sp.Route) == 0:
		return errors.New("lsl: cache serve needs a holding depot as its first hop")
	}
	stripes, stripe := uint16(1), uint16(0)
	for _, o := range sp.Options {
		var err error
		switch o.Kind {
		case wire.OptStripeCount:
			stripes, err = wire.ParseStripeCount(o)
		case wire.OptStripeIndex:
			stripe, err = wire.ParseStripeIndex(o)
		case wire.OptPathIndex:
			_, _, err = wire.ParsePathIndex(o)
		}
		if err != nil {
			return fmt.Errorf("lsl: %w", err)
		}
	}
	if stripe >= stripes {
		return fmt.Errorf("lsl: stripe %d of %d out of range", stripe, stripes)
	}
	return nil
}

// Start opens the session sp names: it dials the first hop, writes
// the session header (carrying the remaining source route, if any),
// and returns the session ready for payload writes. Closing the
// session propagates end-of-stream down the chain.
func Start(d Dialer, sp Spec) (*Session, error) {
	if err := sp.check(); err != nil {
		return nil, err
	}
	id := sp.ID
	if id == (wire.SessionID{}) {
		var err error
		if id, err = wire.NewSessionID(); err != nil {
			return nil, err
		}
	}
	typ := sp.Type
	if typ == 0 {
		typ = wire.TypeData
	}
	first := sp.Dst
	if len(sp.Route) > 0 {
		first = sp.Route[0]
	} else if !sp.Entry.IsZero() {
		first = sp.Entry
	}
	// Room for the resume offset and the source route.
	opts := append(make([]wire.Option, 0, len(sp.Options)+2), sp.Options...)
	if sp.Offset > 0 {
		opts = append(opts, wire.ResumeOffsetOption(uint64(sp.Offset)))
	}
	if len(sp.Route) > 0 {
		rest := append(append(make([]wire.Endpoint, 0, len(sp.Route)), sp.Route[1:]...), sp.Dst)
		opts = append(opts, wire.SourceRouteOption(rest))
	}
	t0 := time.Now()
	conn, err := d.Dial(first.String())
	if err != nil {
		metrics().Counter(MetricDialErrors).Inc()
		return nil, fmt.Errorf("lsl: dial %s: %w", first, err)
	}
	h := &wire.Header{
		Version: wire.Version1,
		Type:    typ,
		Session: id,
		Src:     sp.Src,
		Dst:     sp.Dst,
		Options: opts,
	}
	if err := wire.WriteHeader(conn, h); err != nil {
		conn.Close()
		return nil, err
	}
	observeSetup(t0)
	return &Session{Conn: conn, Header: h}, nil
}

// Open is Start for a plain data session from src to dst through the
// loose source route of depot endpoints (empty route = direct), with
// extra header options.
func Open(d Dialer, src, dst wire.Endpoint, route []wire.Endpoint, extra ...wire.Option) (*Session, error) {
	return Start(d, Spec{Src: src, Dst: dst, Route: route, Options: extra})
}

// TimeoutDialer bounds each Dial through d to the given timeout,
// giving per-hop connect timeouts to transports (like the emulated
// network) whose dials cannot otherwise be interrupted. On timeout the
// abandoned connection, if it eventually materializes, is closed.
func TimeoutDialer(d Dialer, timeout time.Duration) Dialer {
	if timeout <= 0 {
		return d
	}
	return DialerFunc(func(address string) (net.Conn, error) {
		type result struct {
			conn net.Conn
			err  error
		}
		ch := make(chan result, 1)
		go func() {
			conn, err := d.Dial(address)
			ch <- result{conn, err}
		}()
		select {
		case r := <-ch:
			return r.conn, r.err
		case <-time.After(timeout):
			go func() {
				if r := <-ch; r.conn != nil {
					r.conn.Close()
				}
			}()
			return nil, fmt.Errorf("lsl: dial %s: %w", address, os.ErrDeadlineExceeded)
		}
	})
}

// Fetch retrieves the payload stored under id at the given depot. It
// returns a session positioned at the start of the payload; the caller
// reads to EOF and closes. ErrRefused means the depot holds no such
// session.
func Fetch(d Dialer, self, depotAddr wire.Endpoint, id wire.SessionID) (*Session, error) {
	req, err := Start(d, Spec{Type: wire.TypeFetch, Src: self, Dst: depotAddr, Options: []wire.Option{wire.FetchIDOption(id)}})
	if err != nil {
		return nil, err
	}
	resp, err := wire.ReadHeader(req)
	if err != nil {
		req.Close()
		return nil, fmt.Errorf("lsl: fetch response: %w", err)
	}
	if resp.Type == wire.TypeRefuse {
		req.Close()
		metrics().Counter(MetricRefusalsSeen).Inc()
		return nil, ErrRefused
	}
	if resp.Type != wire.TypeData || resp.Session != id {
		req.Close()
		return nil, fmt.Errorf("lsl: unexpected fetch response type %d session %s", resp.Type, resp.Session)
	}
	return &Session{Conn: req.Conn, Header: resp}, nil
}

// observeSetup records one successful session establishment.
func observeSetup(t0 time.Time) {
	r := metrics()
	r.Counter(MetricSessionsOpened).Inc()
	r.Histogram(MetricSetupSeconds, setupBuckets).Observe(time.Since(t0).Seconds())
}

// Accept reads the session header from a just-accepted transport
// connection, returning the session positioned at the start of the
// payload. Sinks and depots both begin with this.
func Accept(conn net.Conn) (*Session, error) {
	h, err := wire.ReadHeader(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if h.Type == wire.TypeRefuse {
		conn.Close()
		metrics().Counter(MetricRefusalsSeen).Inc()
		return nil, ErrRefused
	}
	metrics().Counter(MetricSessionsAccepted).Inc()
	return &Session{Conn: conn, Header: h}, nil
}

// ErrRefused indicates the remote depot declined the session.
var ErrRefused = errors.New("lsl: session refused by depot")

// Refuse writes a refusal header mirroring the request and closes the
// connection — the "session negotiation that allows a potential depot
// to refuse a new connection based on host load" the paper proposes.
func Refuse(conn net.Conn, req *wire.Header) error {
	defer conn.Close()
	metrics().Counter(MetricRefusalsIssued).Inc()
	h := &wire.Header{
		Version: wire.Version1,
		Type:    wire.TypeRefuse,
		Session: req.Session,
		Src:     req.Src,
		Dst:     req.Dst,
	}
	return wire.WriteHeader(conn, h)
}
