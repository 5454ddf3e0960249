package depot

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netlogistics/lsl/internal/bufpool"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// Metric names a Sink counts into: end-to-end digest mismatches,
// multipath digests that matched, verified bytes dropped as late (after
// their record's verdict or retirement), and records a budget degraded
// to unchecked. The first two keep their in-process library names.
const (
	MetricDigestMismatches        = "core_digest_mismatches_total"
	MetricMultipathDigestVerified = "core_multipath_digest_verified_total"
	MetricSinkLateBytes           = "depot_sink_late_bytes_total"
	MetricSinkEvictions           = "depot_sink_evictions_total"
)

// A Sink's budgets: live records (one more evicts the oldest),
// tombstones, and the bytes all records together buffer ahead of their
// frontiers, which caps any one record at 64 MiB too.
const (
	maxRecords    = 1024
	maxTombstones = 4096
	maxBuffered   = 64 << 20
)

// Report is a Sink's account of one finished session. Bytes counts what
// verified from Offset on; Err is the verdict (nil, the error that ended
// the read, or wire.ErrDigest); Checked marks the session that completed
// its object's digest.
type Report struct {
	ID            wire.SessionID
	Src           wire.Endpoint
	Offset, Bytes int64
	Err           error
	Checked       bool
	Elapsed       time.Duration
}

// Sink is the verifying endpoint of a session; depots only relay. One
// read loop unframes, checks the pattern from the resume offset, and
// feeds one SHA-256 per logical transfer, kept in a record keyed by
// (session id, trace id): a transfer's attempts share one, and a later
// transfer reusing an object's session id under a fresh trace id gets
// its own. Bytes are stitched by absolute offset (overlap skipped, a
// range past the frontier buffered), so in-order, resumed and multipath
// ranges take one path. A match or a Retire leaves a tombstone, and a
// late range for that key is counted and dropped. A record a budget
// takes degrades to unchecked, never to a false mismatch. Striped
// sessions skip the digest: their ranges interleave across siblings.
type Sink struct {
	done     func(Report)
	reg      *obs.Registry
	buffered atomic.Int64

	mu              sync.Mutex
	live            map[recordKey]*record
	seq             uint64
	tombs, oldTombs map[recordKey]bool // two generations, newest first
}

// NewSink returns a sink that hands each session's Report to done (nil
// discards them) and counts into reg (nil for none).
func NewSink(done func(Report), reg *obs.Registry) *Sink {
	return &Sink{
		done:  done,
		reg:   reg,
		live:  make(map[recordKey]*record),
		tombs: make(map[recordKey]bool),
	}
}

type recordKey struct {
	id    wire.SessionID
	trace wire.TraceID
}

// record is one transfer's digest: next is the offset hashed so far,
// pending the verified segments past it. A budget makes it unchecked;
// a verdict or Retire closes it.
type record struct {
	key               recordKey
	seq               uint64
	mu                sync.Mutex
	h                 hash.Hash
	next, pendBytes   int64
	pending           map[int64][]byte
	unchecked, closed bool
}

// Handle is the Sink as a depot Handler: it reads one session, reports
// it, and returns its verdict.
func (k *Sink) Handle(sess *lsl.Session) error {
	start, h := time.Now(), sess.Header
	rep := Report{ID: h.Session, Src: h.Src, Offset: h.ResumeOffset()}
	want, digest := h.ContentDigest()
	var rec *record
	var each func(p []byte, off int64)
	if digest && h.StripeCount() <= 1 {
		tid, _ := h.TraceID()
		if rec = k.open(recordKey{h.Session, tid}); rec != nil {
			each = func(p []byte, off int64) { rec.absorb(k, off, p) }
		} else {
			each = func(p []byte, _ int64) { k.reg.Counter(MetricSinkLateBytes).Add(int64(len(p))) }
		}
	}
	rep.Bytes, rep.Err = ReadVerified(sess, rep.ID, rep.Offset, h.Checksummed(), each)
	if rep.Err == nil && rec != nil {
		rep.Checked, rep.Err = k.settle(rec, want, h.PathCount() > 1)
	}
	rep.Elapsed = time.Since(start)
	if k.done != nil {
		k.done(rep)
	}
	return rep.Err
}

// ReadVerified is the one read loop of a receiving endpoint, a Sink's
// session and a fetch alike: it reads r to EOF, unframing it when
// framed, checks each buffer against session id's pattern at its offset
// and hands it to each (when not nil). It returns the bytes that
// verified, stopping at the first error.
func ReadVerified(r io.Reader, id wire.SessionID, offset int64, framed bool, each func(p []byte, off int64)) (int64, error) {
	if framed {
		r = wire.NewFrameReader(r)
	}
	bp := bufpool.Get()
	defer bufpool.Put(bp)
	var n int64
	for {
		m, err := r.Read(*bp)
		if m > 0 {
			p := (*bp)[:m]
			if verr := VerifyPattern(p, id, offset+n); verr != nil {
				return n, verr
			}
			if each != nil {
				each(p, offset+n)
			}
			n += int64(m)
		}
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// Retire ends a transfer's record whatever its state and leaves a
// tombstone, so a range still in flight (a stolen multipath range that
// lands after the transfer returned) is counted late instead of opening
// a record nothing would retire again.
func (k *Sink) Retire(id wire.SessionID, trace wire.TraceID) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.end(recordKey{id, trace}, k.live[recordKey{id, trace}], true)
}

// Live returns the number of live digest records.
func (k *Sink) Live() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.live)
}

// open resolves a session's record once: key's live record, a new one,
// or nil when key is tombstoned.
func (k *Sink) open(key recordKey) *record {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.tombs[key] || k.oldTombs[key] {
		return nil
	}
	if r := k.live[key]; r != nil {
		return r
	}
	if len(k.live) >= maxRecords {
		var old *record
		for _, r := range k.live {
			if old == nil || r.seq < old.seq {
				old = r
			}
		}
		delete(k.live, old.key)
		old.mu.Lock()
		old.drop(k, true)
		old.mu.Unlock()
	}
	k.seq++
	r := &record{key: key, seq: k.seq, h: sha256.New(), pending: make(map[int64][]byte)}
	k.live[key] = r
	return r
}

// end removes key's record r (nil when none) from the table, closes it,
// and with bury leaves a tombstone, unless the zero trace id names no
// one transfer. Once a generation of tombstones is full, the older one
// is forgotten. k.mu is held.
func (k *Sink) end(key recordKey, r *record, bury bool) {
	if r != nil {
		if k.live[key] == r {
			delete(k.live, key)
		}
		r.mu.Lock()
		r.drop(k, false)
		r.mu.Unlock()
	}
	if !bury || key.trace.IsZero() || k.tombs[key] {
		return
	}
	if len(k.tombs) >= maxTombstones/2 {
		k.oldTombs, k.tombs = k.tombs, make(map[recordKey]bool)
	}
	k.tombs[key] = true
}

// settle reaches r's verdict once its frontier covers the object, and
// counts it before any other session can see r closed: a duplicate
// range's report may reach the sender before this session's. Only a
// match leaves a tombstone: after a mismatch the sender restarts the
// object under the same key, and the restart must be checked again.
func (k *Sink) settle(r *record, want wire.ContentDigest, multipath bool) (checked bool, err error) {
	var sum [sha256.Size]byte
	r.mu.Lock()
	checked = !r.closed && !r.unchecked && r.next == want.Size
	if checked {
		r.h.Sum(sum[:0])
		if sum != want.Sum {
			k.reg.Counter(MetricDigestMismatches).Inc()
		} else if multipath {
			k.reg.Counter(MetricMultipathDigestVerified).Inc()
		}
		r.closed = true // one verdict, however many sessions end at once
	}
	r.mu.Unlock()
	if !checked {
		return false, nil
	}
	k.mu.Lock()
	k.end(r.key, r, sum == want.Sum)
	k.mu.Unlock()
	if sum != want.Sum {
		return true, fmt.Errorf("%w: object sha256 differs from sender digest over %d bytes", wire.ErrDigest, want.Size)
	}
	return true, nil
}

// absorb folds p, verified bytes at offset off, into r.
func (r *record) absorb(k *Sink, off int64, p []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.closed:
		k.reg.Counter(MetricSinkLateBytes).Add(int64(len(p)))
	case r.unchecked:
	case off > r.next:
		r.hold(k, off, p)
	default:
		r.write(off, p)
		r.drain(k)
	}
}

// hold buffers a copy of p past the frontier, keeping the longer of two
// segments at one offset (a stolen range delivered twice). A copy that
// would take the sink past its byte budget degrades r instead.
func (r *record) hold(k *Sink, off int64, p []byte) {
	grow := int64(len(p) - len(r.pending[off]))
	if grow <= 0 {
		return
	}
	if k.buffered.Add(grow) > maxBuffered {
		k.buffered.Add(-grow)
		r.drop(k, true)
		return
	}
	r.pending[off] = append([]byte(nil), p...)
	r.pendBytes += grow
}

// drain hashes the buffered segments the frontier has reached, until
// only segments past it remain.
func (r *record) drain(k *Sink) {
	for moved := true; moved; {
		moved = false
		for o, seg := range r.pending {
			if o <= r.next {
				delete(r.pending, o)
				r.pendBytes -= int64(len(seg))
				k.buffered.Add(-int64(len(seg)))
				moved = r.write(o, seg) || moved
			}
		}
	}
}

// write hashes the part of p, at offset off ≤ r.next, past the
// frontier, and reports whether the frontier moved.
func (r *record) write(off int64, p []byte) bool {
	skip := r.next - off
	if skip >= int64(len(p)) {
		return false
	}
	r.h.Write(p[skip:])
	r.next += int64(len(p)) - skip
	return true
}

// drop frees r's buffer and marks it unchecked (counted once) or
// closed. r.mu is held.
func (r *record) drop(k *Sink, unchecked bool) {
	if unchecked && !r.unchecked && !r.closed {
		k.reg.Counter(MetricSinkEvictions).Inc()
	}
	r.unchecked, r.closed = r.unchecked || unchecked, r.closed || !unchecked
	k.buffered.Add(-r.pendBytes)
	r.pending, r.pendBytes = nil, 0
}
