package depot

import (
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/netlogistics/lsl/internal/bufpool"
	"github.com/netlogistics/lsl/internal/cache"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// maxInventoryDigests caps a cache-probe inventory response so it
// always fits a single header (64 KiB / 44 bytes per lookup option
// leaves ample headroom).
const maxInventoryDigests = 1024

// handleCacheProbe answers a TypeCacheProbe exchange on its own
// connection, like a fetch: with a lookup option the response carries
// the cached byte ranges for that digest; without one it carries the
// depot's digest inventory (fully held objects only). Probes bypass
// the admission gate for the same reason control pushes do — a depot
// shedding load still wants its cache found, because every hit it
// advertises is load somebody else does not send.
func (s *Server) handleCacheProbe(conn net.Conn, h *wire.Header, f *flow) error {
	defer conn.Close()
	if s.cfg.Cache == nil {
		s.st.refused.Add(1)
		s.met.refused.Inc()
		f.emit(obs.KindRefused, obs.Event{Peer: h.Src.String(), Detail: "no cache configured"})
		return lsl.Refuse(conn, h)
	}
	resp := &wire.Header{
		Version: wire.Version1,
		Type:    wire.TypeCacheProbe,
		Session: h.Session,
		Src:     s.cfg.Self,
		Dst:     h.Src,
	}
	if d, ok := h.CacheLookup(); ok {
		resp.AddOption(wire.CacheAdvertOption(s.cfg.Cache.Ranges(d)))
	} else {
		keys := s.cfg.Cache.Keys()
		if len(keys) > maxInventoryDigests {
			keys = keys[:maxInventoryDigests]
		}
		for _, k := range keys {
			resp.AddOption(wire.CacheLookupOption(k))
		}
	}
	return wire.WriteHeader(conn, resp)
}

// handleCacheServe executes a serve-from-cache directive: the depot
// opens the named range in its cache and pushes it toward the session
// destination as an ordinary TypeData stream resuming at the range
// offset. A directive it cannot satisfy — no cache, malformed option,
// range not held — is refused, so the initiator's recovery machinery
// falls back to an origin send. A cached span that fails its CRC check
// mid-read ends the session partway; the sink's acked offset tells the
// initiator where the origin re-send must resume.
func (s *Server) handleCacheServe(sess *lsl.Session, f *flow) error {
	defer sess.Close()
	h := sess.Header
	d, r, ok := h.CacheServe()
	if !ok || s.cfg.Cache == nil {
		s.st.refused.Add(1)
		s.met.refused.Inc()
		f.emit(obs.KindRefused, obs.Event{Peer: h.Src.String(), Detail: "cache serve unavailable"})
		_ = lsl.Refuse(sess.Conn, h)
		return nil
	}
	rc, err := s.cfg.Cache.Open(d, r)
	if err != nil {
		s.st.refused.Add(1)
		s.met.refused.Inc()
		f.emit(obs.KindRefused, obs.Event{Peer: h.Src.String(), Detail: "cache miss: " + err.Error()})
		_ = lsl.Refuse(sess.Conn, h)
		return nil
	}
	defer rc.Close()
	next, rest, local, err := s.nextHop(h)
	if err != nil {
		if s.refuseRouting(sess, f, err) {
			return nil
		}
		return err
	}
	f.emit(obs.KindCacheHit, obs.Event{Peer: h.Dst.String(), Bytes: r.Len,
		Detail: fmt.Sprintf("serving [%d,%d) from cache", r.Off, r.End())})

	var dst io.WriteCloser
	if local {
		defer s.track(f, h, "cache-serve", wire.Endpoint{})()
		pr, pw := io.Pipe()
		dst = pw
		inner := &lsl.Session{Conn: pipeConn{PipeReader: pr}, Header: serveHeader(h, r, f.hopIndex())}
		done := make(chan error, 1)
		go func() { done <- s.deliver(inner, f) }()
		defer func() {
			pw.Close()
			<-done
		}()
	} else {
		defer s.track(f, h, "cache-serve", next)()
		out, derr := s.dialOnward(next, f)
		if derr != nil {
			return fmt.Errorf("cache serve dial %s: %w", next, derr)
		}
		defer out.Close()
		f.emit(obs.KindConnect, obs.Event{Peer: next.String()})
		fh := serveHeader(forwardHeader(h, rest, f.hopIndex()), r, f.hopIndex())
		if err := wire.WriteHeader(out, fh); err != nil {
			return err
		}
		dst = out
	}

	_, perr := s.pump(dst, cacheSource(rc, h.Checksummed()), f)
	s.st.forwarded.Add(1)
	return s.flagCorrupt(sess, f, perr)
}

// cacheSource is the pump source of a serve from the cache: a chunk is
// one stored block, CRC-checked in the buffer it leaves in. The block is
// a frame already: a checksummed session forwards it whole, under the
// header this hop just proved, a plain one the payload behind it.
func cacheSource(rc *cache.Reader, framed bool) source {
	return source{get: bufpool.GetFrame, next: func(buf []byte) ([]byte, error) {
		n, err := rc.Next(buf)
		if err != nil || framed {
			return buf[:n], err
		}
		return buf[wire.FrameHeaderLen:n], nil
	}}
}

// serveHeader turns a cache-serve header into the TypeData header the
// downstream path sees: the directive option is stripped and the
// resume offset pinned to the served range, so the sink lands the
// bytes at the right place in the object.
func serveHeader(h *wire.Header, r wire.ByteRange, hop int) *wire.Header {
	out := &wire.Header{
		Version: h.Version,
		Type:    wire.TypeData,
		Session: h.Session,
		Src:     h.Src,
		Dst:     h.Dst,
	}
	for _, o := range h.Options {
		if o.Kind == wire.OptCacheServe || o.Kind == wire.OptResumeOffset || o.Kind == wire.OptHopIndex {
			continue
		}
		out.AddOption(o)
	}
	if r.Off > 0 {
		out.AddOption(wire.ResumeOffsetOption(uint64(r.Off)))
	}
	out.AddOption(wire.HopIndexOption(uint16(hop)))
	return out
}

// cacheable extracts the cache key for a session's payload: a plain
// (unstriped) data session carrying a well-formed content digest. The
// remaining byte range follows from the resume offset.
func cacheable(h *wire.Header) (wire.ContentDigest, wire.ByteRange, bool) {
	if h.Type != wire.TypeData || h.StripeCount() > 1 {
		return wire.ContentDigest{}, wire.ByteRange{}, false
	}
	d, ok := h.ContentDigest()
	if !ok || d.Size <= 0 {
		return wire.ContentDigest{}, wire.ByteRange{}, false
	}
	off := h.ResumeOffset()
	if off < 0 || off >= d.Size {
		return wire.ContentDigest{}, wire.ByteRange{}, false
	}
	return d, wire.ByteRange{Off: off, Len: d.Size - off}, true
}

// cacheShortCircuit serves the session's remaining range from the
// local cache when it is held in full: the upstream sublink is
// terminated immediately (the sender sees its writes fail, exactly as
// if the path had collapsed behind the bytes already being delivered)
// and the depot pumps the cached bytes onward itself. Reports whether
// it served; when it did, the session error (if any) has already been
// accounted. A partial or failed cache read ends the session early and
// the initiator resumes from the sink's acked offset via the origin.
func (s *Server) cacheShortCircuit(sess *lsl.Session, f *flow, next wire.Endpoint, rest []wire.Endpoint) (bool, error) {
	if s.cfg.Cache == nil {
		return false, nil
	}
	h := sess.Header
	d, r, ok := cacheable(h)
	if !ok {
		return false, nil
	}
	rc, err := s.cfg.Cache.Open(d, r)
	if err != nil {
		// Counted as a cache miss: this depot had to let the session go
		// to the origin path.
		return false, nil
	}
	defer rc.Close()
	defer s.track(f, h, "cache-serve", next)()
	f.emit(obs.KindCacheHit, obs.Event{Peer: h.Dst.String(), Bytes: r.Len,
		Detail: fmt.Sprintf("short-circuit: serving [%d,%d) from cache, upstream terminated", r.Off, r.End())})
	// Terminate the upstream sublink: everything the origin would still
	// send is already here.
	sess.Conn.Close()

	out, err := s.dialOnward(next, f)
	if err != nil {
		return true, fmt.Errorf("cache serve dial %s: %w", next, err)
	}
	defer out.Close()
	f.emit(obs.KindConnect, obs.Event{Peer: next.String()})
	fh := forwardHeader(h, rest, f.hopIndex())
	fh.Type = wire.TypeData
	if err := wire.WriteHeader(out, fh); err != nil {
		return true, err
	}
	_, perr := s.pump(out, cacheSource(rc, h.Checksummed()), f)
	s.st.forwarded.Add(1)
	return true, s.flagCorrupt(sess, f, perr)
}

// cacheTap writes the payload a forwarding pump moves into a cache
// fill as it passes and commits the fill when the session ends —
// on-forward population. On a checksummed session the pump hands it
// each frame whole and already verified, so whatever arrived before a
// failure is complete, proven frames: good bytes, committed as the
// partial range they are. An unchecked stream carries no per-chunk
// proof, so it is committed only when the session completes cleanly.
//
// The pump's reader feeds the tap and the session's handler commits it;
// a pump that ends on a dead downstream returns with its reader still
// draining upstream, so mu orders the two.
type cacheTap struct {
	fill   *cache.Fill
	framed bool // a checksummed session: put is handed whole verified frames
	mu     sync.Mutex
	broken bool
}

// cacheTap returns a population tap for the session, or nil when the
// session is not cacheable, would not fit the cache, or carries a range
// the cache already holds.
func (s *Server) cacheTap(h *wire.Header) *cacheTap {
	if s.cfg.Cache == nil {
		return nil
	}
	d, r, ok := cacheable(h)
	if !ok || !s.cfg.Cache.Fits(r.Len) {
		return nil
	}
	fill := s.cfg.Cache.Begin(d, r)
	if fill == nil {
		return nil
	}
	if h.PathCount() > 1 {
		fill.Partial()
	}
	return &cacheTap{fill: fill, framed: h.Checksummed()}
}

// put hands the fill what the pump is about to forward: a piece of a
// plain session's payload, one verified frame of a checksummed one. It
// never fails: population is best-effort and must not disturb
// forwarding. More payload than the digest promised is not trustworthy:
// the tap is poisoned and commits nothing.
func (t *cacheTap) put(p []byte) {
	if t == nil || len(p) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.broken {
		write := t.fill.Write
		if t.framed {
			write = t.fill.WriteFrame
		}
		_, err := write(p)
		t.broken = err != nil
	}
}

// commit makes what the fill holds part of the cache: an index
// operation, cheap enough to precede the downstream close. Verified
// (framed) bytes are committed even after a mid-session failure — a
// partial range is still a true range; unverified bytes only on a
// clean end.
func (t *cacheTap) commit(clean bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.broken && (t.framed || clean) {
		_ = t.fill.Commit() // best-effort: a span the budgets reject is simply not cached
	}
}

// settle does the cache work a commit leaves for after the session:
// tier rebalancing and the proof of an object the commit completed.
func (t *cacheTap) settle() {
	if t != nil {
		t.fill.Settle()
	}
}

// CacheStats exposes the configured cache's statistics (zero Stats
// without a cache).
func (s *Server) CacheStats() cache.Stats {
	if s.cfg.Cache == nil {
		return cache.Stats{}
	}
	return s.cfg.Cache.Stats()
}
