package core

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"sync"

	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/wire"
)

// MetricDigestMismatches counts deliveries whose end-to-end SHA-256
// digest disagreed with the digest the sender minted — corruption that
// slipped past every per-hop chunk checksum, caught at the last line of
// defense.
const MetricDigestMismatches = "core_digest_mismatches_total"

// integrityOptions are the header options an integrity-enabled transfer
// carries: per-chunk CRC-32C framing verified at every depot hop, and a
// whole-object SHA-256 digest the sink checks on completion. The digest
// is computable before the first byte moves because the payload is the
// deterministic session pattern keyed by id (depot.PatternDigest); it
// costs a pass over the whole object, so a transfer computes it once
// and hands it in.
func integrityOptions(digest wire.ContentDigest) []wire.Option {
	return []wire.Option{
		wire.ChunkChecksumOption(),
		wire.ContentDigestOption(digest),
	}
}

// sessionWriter returns the writer a sender streams payload through:
// checksummed sessions wrap their writes in CRC-framed chunks so every
// depot hop can verify them, unchecked sessions write raw bytes.
func sessionWriter(sess *lsl.Session) io.Writer {
	if sess.Header.Checksummed() {
		return wire.NewFrameWriter(sess)
	}
	return sess
}

// digestState is one session's running end-to-end digest at the sink.
// next is the absolute object offset digested so far; broken marks a
// state poisoned by a delivery gap — a digest with a hole can never
// match, so the session degrades to unchecked rather than reporting a
// false mismatch.
type digestState struct {
	h      hash.Hash
	next   int64
	broken bool
	// pending buffers segments delivered ahead of the frontier, keyed
	// by absolute offset — only populated for multipath sessions,
	// whose ranges complete out of order. pendingBytes bounds the
	// buffering (see maxDigestPending).
	pending      map[int64][]byte
	pendingBytes int64
}

// maxDigestPending caps the bytes a multipath digest may buffer ahead
// of its frontier. A transfer that outruns the cap degrades to
// unchecked (per-chunk checksums still guard it) rather than growing
// without bound or reporting a false mismatch.
const maxDigestPending = 64 << 20

// digestTracker holds the receiver-side digest state that must span the
// attempts of one logical transfer: the original session and each
// resume continuation after a fault present the same session id, and
// the tracker stitches their verified byte ranges into one running
// hash.
type digestTracker struct {
	mu sync.Mutex
	m  map[wire.SessionID]*digestState
}

// absorb folds p — delivered, pattern-verified bytes at absolute object
// offset off — into the running digest of session id. Overlap with
// bytes an earlier attempt already digested is skipped (a continuation
// may re-send a suffix the sink partly saw in flight); a gap poisons
// the state.
func (t *digestTracker) absorb(id wire.SessionID, off int64, p []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[wire.SessionID]*digestState)
	}
	st, ok := t.m[id]
	if !ok {
		st = &digestState{h: sha256.New()}
		t.m[id] = st
	}
	if st.broken {
		return
	}
	if off > st.next {
		st.broken = true
		return
	}
	if skip := st.next - off; skip > 0 {
		if skip >= int64(len(p)) {
			return
		}
		p = p[skip:]
	}
	st.h.Write(p)
	st.next += int64(len(p))
}

// absorbOutOfOrder is absorb for multipath sessions, whose disjoint
// routes deliver ranges in no particular order: a segment beyond the
// frontier is buffered instead of poisoning the state, and every time
// the frontier advances the buffered segments that now touch it are
// drained into the running hash. Overlap — a stolen range delivered by
// two routes, or a resume continuation re-sending a verified suffix —
// is skipped, so first-ack-wins double completion cannot corrupt the
// digest.
func (t *digestTracker) absorbOutOfOrder(id wire.SessionID, off int64, p []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[wire.SessionID]*digestState)
	}
	st, ok := t.m[id]
	if !ok {
		st = &digestState{h: sha256.New()}
		t.m[id] = st
	}
	if st.broken {
		return
	}
	if off > st.next {
		if st.pendingBytes+int64(len(p)) > maxDigestPending {
			st.broken = true
			st.pending = nil
			return
		}
		if st.pending == nil {
			st.pending = make(map[int64][]byte)
		}
		// Keep the longer segment on a duplicate offset (steal overlap).
		if prev, dup := st.pending[off]; !dup || len(p) > len(prev) {
			st.pendingBytes += int64(len(p) - len(prev))
			st.pending[off] = append([]byte(nil), p...)
		}
		return
	}
	st.write(p, off)
	st.drain()
}

// write folds the suffix of p past the frontier into the hash; off is
// p's absolute offset, at or below the frontier.
func (st *digestState) write(p []byte, off int64) {
	if skip := st.next - off; skip > 0 {
		if skip >= int64(len(p)) {
			return
		}
		p = p[skip:]
	}
	st.h.Write(p)
	st.next += int64(len(p))
}

// drain consumes buffered segments that now touch the frontier,
// repeating until only segments strictly beyond it remain.
func (st *digestState) drain() {
	for {
		advanced := false
		for off, seg := range st.pending {
			if off > st.next {
				continue
			}
			delete(st.pending, off)
			st.pendingBytes -= int64(len(seg))
			if end := off + int64(len(seg)); end > st.next {
				st.write(seg, off)
				advanced = true
			}
		}
		if !advanced {
			return
		}
	}
}

// finalize checks a completed object against the sender's digest. done
// is false while the running digest does not yet cover the whole object
// — a partial delivery whose resume continuation will pick the state
// back up — or when the state was poisoned; err is non-nil only on a
// true end-to-end mismatch. A finalized or poisoned state is removed.
func (t *digestTracker) finalize(id wire.SessionID, want wire.ContentDigest) (done bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.m[id]
	if !ok {
		return false, nil
	}
	if st.broken {
		delete(t.m, id)
		return false, nil
	}
	if st.next != want.Size {
		return false, nil
	}
	delete(t.m, id)
	var sum [sha256.Size]byte
	st.h.Sum(sum[:0])
	if sum != want.Sum {
		return true, fmt.Errorf("%w: object sha256 differs from sender digest over %d bytes", wire.ErrDigest, want.Size)
	}
	return true, nil
}

// drop discards any running digest state for id. Transfer initiators
// call it on exit so an abandoned transfer does not leak sink state.
func (t *digestTracker) drop(id wire.SessionID) {
	t.mu.Lock()
	delete(t.m, id)
	t.mu.Unlock()
}
