package depot

import (
	"errors"
	"fmt"
	"net"

	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// ErrNoRoute is the typed refusal for a table-driven depot that holds
// no route for a session's destination. The depot refuses the session
// (the initiator sees lsl.ErrRefused, which its retry and failover
// machinery already classifies as transient) rather than guessing a
// direct path the controller never sanctioned.
var ErrNoRoute = errors.New("depot: no route for destination")

// ErrHopLimit is the typed refusal for a session whose hop count
// reached Config.MaxHops. It bounds transient forwarding loops — a
// freshly pushed table can briefly disagree with a neighbour's stale
// one — the way an IP TTL bounds routing loops.
var ErrHopLimit = errors.New("depot: hop limit exceeded")

// routeTable is one immutable controller-pushed snapshot. Lookups load
// the current pointer and read the map lock-free; installs swap the
// whole pointer, so forwarding never sees a half-updated table.
type routeTable struct {
	epoch uint64
	next  map[wire.Endpoint]wire.Endpoint
}

// InstallRoutes atomically replaces the depot's route table if epoch is
// newer than the installed one, reporting whether the install happened.
// Stale or duplicate pushes (epoch not newer) are ignored, so reordered
// control sessions cannot roll routing state backwards.
func (s *Server) InstallRoutes(epoch uint64, entries []wire.RouteEntry) bool {
	table := &routeTable{epoch: epoch, next: make(map[wire.Endpoint]wire.Endpoint, len(entries))}
	for _, e := range entries {
		table.next[e.Dst] = e.Next
	}
	for {
		cur := s.routes.Load()
		if cur != nil && epoch <= cur.epoch {
			return false
		}
		if s.routes.CompareAndSwap(cur, table) {
			s.met.tableEpoch.Set(int64(epoch))
			return true
		}
	}
}

// RouteEpoch returns the epoch of the installed route table, or 0 when
// no table has ever been pushed.
func (s *Server) RouteEpoch() uint64 {
	if t := s.routes.Load(); t != nil {
		return t.epoch
	}
	return 0
}

// RouteCount returns the number of entries in the installed table.
func (s *Server) RouteCount() int {
	if t := s.routes.Load(); t != nil {
		return len(t.next)
	}
	return 0
}

// lookupRoute consults the installed table for dst, counting the hit or
// miss both in aggregate and per destination.
func (s *Server) lookupRoute(dst wire.Endpoint) (wire.Endpoint, bool) {
	t := s.routes.Load()
	if t == nil {
		s.st.tableMisses.Add(1)
		s.met.tableMisses.Inc()
		s.cfg.Metrics.Counter(fmt.Sprintf("%s{dst=%q}", MetricTableMisses, dst.String())).Inc()
		return wire.Endpoint{}, false
	}
	next, ok := t.next[dst]
	if ok {
		s.st.tableHits.Add(1)
		s.met.tableHits.Inc()
		s.cfg.Metrics.Counter(fmt.Sprintf("%s{dst=%q}", MetricTableHits, dst.String())).Inc()
	} else {
		s.st.tableMisses.Add(1)
		s.met.tableMisses.Inc()
		s.cfg.Metrics.Counter(fmt.Sprintf("%s{dst=%q}", MetricTableMisses, dst.String())).Inc()
	}
	return next, ok
}

// handleControl consumes a TypeControl push: it installs the carried
// route table if its epoch is newer than the installed one, then
// answers with a TypeControl header echoing the depot's installed
// epoch so the pusher can verify the push landed. A malformed table is
// rejected whole — the depot keeps forwarding by its current (possibly
// stale) table, which is the control-plane analogue of the stripe
// options' degrade-don't-guess discipline.
func (s *Server) handleControl(conn net.Conn, h *wire.Header, f *flow) error {
	defer conn.Close()
	if !s.cfg.AcceptControl {
		return s.refuse(conn, h, f, "control sessions not accepted")
	}
	epoch := h.TableEpoch()
	entries, perr := h.RouteEntries()
	switch {
	case epoch == 0:
		// Missing or damaged epoch: unversioned state must never
		// overwrite versioned state.
		s.st.stalePushes.Add(1)
		s.met.stalePushes.Inc()
		perr = fmt.Errorf("control push without epoch: %w", wire.ErrOptionMissing)
	case perr != nil:
		s.st.errors.Add(1)
		s.met.errors.Inc()
	case s.InstallRoutes(epoch, entries):
		s.st.tablePushes.Add(1)
		s.met.tablePushes.Inc()
		f.emit(obs.KindRoutes, obs.Event{Peer: h.Src.String(),
			Detail: fmt.Sprintf("installed %d routes at epoch %d", len(entries), epoch)})
		s.logf("depot %s: installed route table epoch %d (%d entries)", s.cfg.Self, epoch, len(entries))
	default:
		s.st.stalePushes.Add(1)
		s.met.stalePushes.Inc()
		f.emit(obs.KindRoutes, obs.Event{Peer: h.Src.String(),
			Detail: fmt.Sprintf("ignored stale push epoch %d (installed %d)", epoch, s.RouteEpoch())})
	}
	ack := &wire.Header{
		Version: wire.Version1,
		Type:    wire.TypeControl,
		Session: h.Session,
		Src:     s.cfg.Self,
		Dst:     h.Src,
		Options: []wire.Option{wire.TableEpochOption(s.RouteEpoch())},
	}
	if werr := wire.WriteHeader(conn, ack); werr != nil && perr == nil {
		perr = fmt.Errorf("control ack: %w", werr)
	}
	return perr
}

// refuseRouting reports whether err is a routing refusal (no route, hop
// limit) and, when it is, refuses the session so the initiator's typed
// retry/failover path takes over instead of seeing a bare hangup.
func (s *Server) refuseRouting(sess *lsl.Session, f *flow, err error) bool {
	if !errors.Is(err, ErrNoRoute) && !errors.Is(err, ErrHopLimit) {
		return false
	}
	if errors.Is(err, ErrHopLimit) {
		s.st.hopLimited.Add(1)
		s.met.hopLimited.Inc()
	}
	s.logf("depot %s: refusing session %s: %v", s.cfg.Self, sess.Header.Session, err)
	_ = s.refuse(sess.Conn, sess.Header, f, err.Error())
	return true
}

// refuse counts a refusal of h's session for reason, traces it, and
// answers it on conn with a typed refusal.
func (s *Server) refuse(conn net.Conn, h *wire.Header, f *flow, reason string) error {
	s.st.refused.Add(1)
	s.met.refused.Inc()
	f.emit(obs.KindRefused, obs.Event{Peer: h.Src.String(), Detail: reason})
	return lsl.Refuse(conn, h)
}
