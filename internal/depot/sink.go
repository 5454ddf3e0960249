package depot

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netlogistics/lsl/internal/bufpool"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/retry"
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
// tombstones, the bytes all records together buffer ahead of their
// frontiers (which caps any one record at 64 MiB too), and the reports
// it keeps for Await, in two generations so unawaited ones age out.
const (
	maxRecords    = 1024
	maxTombstones = 4096
	maxBuffered   = 64 << 20
	maxReports    = 4096
)

// A status query waits at most statusWait for its report before it is
// answered pending with the session's progress, and the asker asks
// again: a report can lag the sender's last write by all that the
// depots still buffer. At most maxStatusWaits queries wait at once; one
// more is answered pending at once.
const (
	statusWait     = time.Second
	maxStatusWaits = 256
)

// VerdictOffset is the Query offset of a transfer's digest verdict: the
// report of the session that completed the object's digest or, when a
// budget degraded the record, an unchecked report without an error.
const VerdictOffset = math.MaxInt64

// Query names the report Sink.Await returns: that of the session of
// transfer (ID, Trace) that began at Offset, or its verdict.
type Query struct {
	ID     wire.SessionID
	Trace  wire.TraceID
	Offset int64
}

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
	tombs, oldTombs map[recordKey]bool      // two generations, newest first
	reps, oldReps   map[Query][]Report      // likewise; a query's newest report last
	nreps           int                     // reports filed into reps
	arrived         chan struct{}           // closed, and replaced, by each filing
	reading         map[Query]*atomic.Int64 // sessions being read: verified end so far
	waits           atomic.Int32            // status queries waiting
}

// NewSink returns a sink that hands each session's Report to done (nil
// discards them) and counts into reg (nil for none).
func NewSink(done func(Report), reg *obs.Registry) *Sink {
	return &Sink{
		done:    done,
		reg:     reg,
		live:    make(map[recordKey]*record),
		tombs:   make(map[recordKey]bool),
		reps:    make(map[Query][]Report),
		arrived: make(chan struct{}),
		reading: make(map[Query]*atomic.Int64),
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

// Handle is the Sink as a depot Handler: it reads one session, hands
// on and files its report, and returns its verdict. A TypeStatus
// session is answered instead.
func (k *Sink) Handle(sess *lsl.Session) error {
	if sess.Header.Type == wire.TypeStatus {
		return k.answer(sess)
	}
	start, h := time.Now(), sess.Header
	rep := Report{ID: h.Session, Src: h.Src, Offset: h.ResumeOffset()}
	tid, _ := h.TraceID()
	want, digest := h.ContentDigest()
	q, end := Query{rep.ID, tid, rep.Offset}, new(atomic.Int64)
	end.Store(rep.Offset)
	k.mu.Lock()
	k.reading[q] = end
	k.mu.Unlock()
	var rec *record
	each := func(p []byte, off int64) { end.Store(off + int64(len(p))) }
	if digest && h.StripeCount() <= 1 {
		if rec = k.open(recordKey{h.Session, tid}); rec != nil {
			each = func(p []byte, off int64) { end.Store(off + int64(len(p))); rec.absorb(k, off, p) }
		} else {
			each = func(p []byte, off int64) {
				end.Store(off + int64(len(p)))
				k.reg.Counter(MetricSinkLateBytes).Add(int64(len(p)))
			}
		}
	}
	rep.Bytes, rep.Err = ReadVerified(sess, rep.ID, rep.Offset, h.Checksummed(), each)
	if rep.Err == nil && rec != nil {
		rep.Checked, rep.Err = k.settle(rec, want, h.PathCount() > 1)
	}
	rep.Elapsed = time.Since(start)
	if k.done != nil {
		k.done(rep) // before any sender can hear of it
	}
	keys := []Query{q}
	if rep.Checked || rec != nil && rec.degraded() {
		keys = append(keys, Query{rep.ID, tid, VerdictOffset})
	}
	k.mu.Lock()
	if k.reading[q] == end {
		delete(k.reading, q)
	}
	k.file(rep, keys...)
	k.mu.Unlock()
	return rep.Err
}

// Await returns the report q names once it is filed, or ctx's error.
// Each filing is returned once; of several under one query, the newest.
// A verdict is filed under its session's query and the verdict's, and
// taking one leaves the other, so a verdict whose session query was
// abandoned still answers the verdict query. In process a sender calls
// Await directly; over TCP it answers the sender's TypeStatus session.
func (k *Sink) Await(ctx context.Context, q Query) (Report, error) {
	if rep, ok := k.await(q, ctx.Done()); ok {
		return rep, nil
	}
	return Report{}, ctx.Err()
}

// await is Await until stop closes.
func (k *Sink) await(q Query, stop <-chan struct{}) (Report, bool) {
	k.mu.Lock()
	for {
		for _, gen := range [2]map[Query][]Report{k.reps, k.oldReps} {
			if l := gen[q]; len(l) > 0 {
				rep := l[len(l)-1]
				gen[q] = l[:len(l)-1]
				k.mu.Unlock()
				return rep, true
			}
		}
		arrived := k.arrived
		k.mu.Unlock()
		select {
		case <-arrived:
		case <-stop:
			return Report{}, false
		}
		k.mu.Lock()
	}
}

// file keeps rep for Await under keys and wakes the waiters. Once a
// generation holds maxReports/2, the older one is forgotten. k.mu is
// held.
func (k *Sink) file(rep Report, keys ...Query) {
	if k.nreps >= maxReports/2 {
		k.oldReps, k.reps, k.nreps = k.reps, make(map[Query][]Report), 0
	}
	for _, key := range keys {
		k.reps[key] = append(k.reps[key], rep)
		k.nreps++
	}
	close(k.arrived)
	k.arrived = make(chan struct{})
}

// answer serves a status query: it awaits the report the header names
// (its session id, trace id and resume offset); once the wait ends
// unanswered, the record is pending and carries the end the session has
// verified so far (its offset when no such session is being read), so
// the asker can tell a slow drain from a stall.
func (k *Sink) answer(sess *lsl.Session) error {
	h := sess.Header
	tid, _ := h.TraceID()
	q := Query{h.Session, tid, h.ResumeOffset()}
	return answerStatus(sess, &k.waits, func(stop <-chan struct{}) wire.Status {
		if rep, ok := k.await(q, stop); ok {
			return wire.StatusOf(rep.Offset+rep.Bytes, rep.Checked, rep.Err, retry.IsFatal(rep.Err))
		}
		st := wire.Status{End: q.Offset, Verdict: wire.VerdictPending}
		k.mu.Lock()
		if end := k.reading[q]; end != nil {
			st.End = end.Load()
		}
		k.mu.Unlock()
		return st
	})
}

// answerStatus writes the answer to one status query back as a
// TypeStatus header and one status record. await returns the answer
// once it is final, or the pending one once stop closes: after
// statusWait, at once when waits already counts maxStatusWaits
// queries, or when the asker hangs up, which then gets nothing.
func answerStatus(sess *lsl.Session, waits *atomic.Int32, await func(stop <-chan struct{}) wire.Status) error {
	defer sess.Close()
	waited := os.ErrDeadlineExceeded // why stop closed: else the asker hung up
	stop := make(chan struct{})
	if waits.Add(1) <= maxStatusWaits {
		_ = sess.SetReadDeadline(time.Now().Add(statusWait))
		go func() {
			_, waited = io.Copy(io.Discard, sess)
			close(stop)
		}()
	} else {
		close(stop)
	}
	st := await(stop)
	waits.Add(-1)
	if st.Verdict == wire.VerdictPending {
		<-stop // await returns pending only once stop is closed
		if !errors.Is(waited, os.ErrDeadlineExceeded) {
			return nil
		}
	}
	h := sess.Header
	resp := &wire.Header{Version: wire.Version1, Type: wire.TypeStatus, Session: h.Session, Src: h.Dst, Dst: h.Src}
	b, err := resp.MarshalBinary()
	if err != nil {
		return err
	}
	_, err = sess.Write(wire.AppendStatus(b, st))
	return err
}

// statusPoll spaces the queries RemoteAwait asks of a pending report.
const statusPoll = 100 * time.Millisecond

// RemoteAwait is Sink.Await across the network: each query is a status
// session from src to the sink's depot at dst, dialed through d, and is
// asked again while the sink answers it pending and its verified end
// moves; a sink that verifies nothing for stall fails it, transient. A
// peer that refuses the query or closes it unanswered (a depot with no
// sink, a sink that predates status queries) returns lsl.ErrRefused,
// which is logged once through logf: completion is then send-side.
func RemoteAwait(d lsl.Dialer, src, dst wire.Endpoint, stall time.Duration, logf func(string, ...any)) func(context.Context, Query) (Report, error) {
	var once sync.Once
	return func(ctx context.Context, q Query) (Report, error) {
		sp := lsl.Spec{ID: q.ID, Src: src, Dst: dst, Offset: q.Offset}
		if !q.Trace.IsZero() {
			sp.Options = []wire.Option{wire.TraceIDOption(q.Trace)}
		}
		end, moved := int64(-1), time.Now()
		for {
			asked := time.Now()
			qctx, cancel := context.WithTimeout(ctx, stall)
			st, err := lsl.Status(qctx, d, sp)
			cancel()
			switch {
			case err == nil && st.Verdict == wire.VerdictPending && q.Offset == StoredOffset && st.End >= q.Offset:
				// A sink built before stores answered for themselves
				// echoes the offset it was asked at: no store status.
				err = fmt.Errorf("%w: no store status", lsl.ErrRefused)
				fallthrough
			case errors.Is(err, lsl.ErrRefused):
				once.Do(func() { logf("%s: %v: completion is send-side", dst, err) })
				return Report{}, err
			case err != nil:
				return Report{}, err
			case st.Verdict != wire.VerdictPending:
				return Report{ID: q.ID, Offset: q.Offset, Bytes: st.End - q.Offset, Err: st.Err(), Checked: st.Checked}, nil
			case st.End > end:
				end, moved = st.End, asked
			case time.Since(moved) > stall:
				return Report{}, retry.AsTransient(fmt.Errorf("depot: sink %s verified nothing for %v", dst, stall))
			}
			select {
			case <-ctx.Done():
				return Report{}, ctx.Err()
			case <-time.After(time.Until(asked.Add(statusPoll))):
			}
		}
	}
}

// ReadVerified is the one read loop of a receiving endpoint, a Sink's
// session and a fetch alike: it reads r to EOF, unframing it when
// framed, checks each buffer against session id's pattern at its offset
// (against one period table, and on a mismatch byte by byte, to name
// the first bad offset) and hands it to each (when not nil). It returns
// the bytes that verified, stopping at the first error.
func ReadVerified(r io.Reader, id wire.SessionID, offset int64, framed bool, each func(p []byte, off int64)) (int64, error) {
	if framed {
		r = wire.NewFrameReader(r)
	}
	bp, t := bufpool.Get(), newPatternTable(id, offset, patternPeriod)
	defer bufpool.Put(bp)
	var n int64
	for {
		m, err := r.Read(*bp)
		if m > 0 {
			p := (*bp)[:m]
			if verr := t.verify(p, offset+n); verr != nil {
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
		k.file(Report{ID: old.key.id}, Query{old.key.id, old.key.trace, VerdictOffset})
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

// degraded reports whether a budget made r unchecked.
func (r *record) degraded() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.unchecked
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
