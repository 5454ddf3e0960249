package depot

import (
	"crypto/sha256"
	"errors"

	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// flagCorrupt inspects a session error for detected data corruption
// (chunk-checksum or content-digest mismatch). When it finds one it
// counts the event, emits a "corrupt" trace event pinned to this hop,
// and answers the initiator with a typed refusal so its retry policy
// classifies the failure as transient and re-sends the damaged range.
// The error is returned unchanged either way.
func (s *Server) flagCorrupt(sess *lsl.Session, f *flow, err error) error {
	if err == nil || (!errors.Is(err, wire.ErrChecksum) && !errors.Is(err, wire.ErrDigest)) {
		return err
	}
	s.st.checksumErrors.Add(1)
	s.met.checksumErrs.Inc()
	f.emit(obs.KindCorrupt, obs.Event{Peer: sess.Header.Src.String(), Detail: err.Error()})
	s.logf("depot %s: session %s: corrupt payload: %v", s.cfg.Self, sess.Header.Session, err)
	_ = lsl.Refuse(sess.Conn, sess.Header)
	return err
}

// PatternDigest computes the content digest of the deterministic
// session pattern — what a sender stamps into OptContentDigest for a
// pattern-filled transfer of the given size.
func PatternDigest(id wire.SessionID, size int64) wire.ContentDigest {
	h := sha256.New()
	WritePattern(h, id, 0, size) //nolint:errcheck // a hash never fails a write
	d := wire.ContentDigest{Size: size}
	h.Sum(d.Sum[:0])
	return d
}
