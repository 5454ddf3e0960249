package depot

import (
	"context"
	"crypto/sha256"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// sinkStep is one action against a Sink: a session delivering [from,
// to) of object obj under trace id number trace (0 is the zero trace
// id), or, with retire set, the object's sender retiring that key.
type sinkStep struct {
	obj, trace int
	from, to   int64
	retire     bool
	// checked and mismatch are the session report's expected verdict.
	checked, mismatch bool
}

func sinkObject(obj int) wire.SessionID {
	return wire.SessionID{0x5e, byte(obj), byte(obj >> 8), 1}
}

func sinkTrace(n int) wire.TraceID {
	if n == 0 {
		return wire.TraceID{}
	}
	return wire.TraceID{0x7a, byte(n)}
}

// sinkSession delivers payload[from:to] — an object's pattern — as one
// session through k over net.Pipe, CRC-framed when framed, and returns
// the sink's report.
func sinkSession(t *testing.T, k *Sink, reports <-chan Report, h *wire.Header, payload []byte, from, to int64, framed bool) Report {
	t.Helper()
	client, server := net.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- k.Handle(&lsl.Session{Conn: server, Header: h}) }()
	var w io.Writer = client
	if framed {
		w = wire.NewFrameWriter(client)
	}
	for off := from; off < to; {
		n := min(64<<10, to-off)
		if _, err := w.Write(payload[off : off+n]); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
		off += n
	}
	client.Close()
	select {
	case r := <-reports:
		if herr := <-errc; !errors.Is(herr, r.Err) {
			t.Fatalf("Handle returned %v, report says %v", herr, r.Err)
		}
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("no report for [%d, %d)", from, to)
		return Report{}
	}
}

// TestSink drives the verifying sink over net.Pipe sessions: stitching
// by offset in and out of order, tombstones and late bytes, the
// (session id, trace id) key, and the budgets that bound its state.
func TestSink(t *testing.T) {
	const size = 2600 // every case's object size unless it sets one
	inOrder := func(obj, trace int) sinkStep {
		return sinkStep{obj: obj, trace: trace, to: size, checked: true}
	}
	// Opening one more record than the table holds evicts the oldest,
	// which degrades to unchecked: its continuation reports no verdict.
	var overfill []sinkStep
	for obj := 0; obj <= maxRecords; obj++ {
		overfill = append(overfill, sinkStep{obj: obj, trace: 1, to: 100})
	}
	overfill = append(overfill, sinkStep{obj: 0, trace: 1, from: 100, to: size})

	cases := []struct {
		name string
		size int64
		// framed CRC-frames every session; paths marks them multipath;
		// bad makes the header digest one no delivery can match.
		framed, paths, bad bool
		steps              []sinkStep
		live               int
		late, evictions    int64
		verified           int64 // multipath digests that matched
	}{
		{name: "in order", framed: true, steps: []sinkStep{
			{obj: 0, trace: 1, to: 1000},
			{obj: 0, trace: 1, from: 1000, to: size, checked: true},
		}},
		{name: "out of order stitched", paths: true, verified: 1, steps: []sinkStep{
			{obj: 0, trace: 1, from: 600, to: size},
			{obj: 0, trace: 1, from: 250, to: 600},
			{obj: 0, trace: 1, to: 250, checked: true},
		}},
		{name: "resume overlap skipped", framed: true, steps: []sinkStep{
			{obj: 0, trace: 1, to: 1000},
			{obj: 0, trace: 1, from: 600, to: size, checked: true},
		}},
		{name: "gap stays unchecked", live: 1, steps: []sinkStep{
			{obj: 0, trace: 1, to: 100},
			{obj: 0, trace: 1, from: 200, to: size},
		}},
		{name: "mismatch leaves no tombstone", bad: true, steps: []sinkStep{
			{obj: 0, trace: 1, to: size, checked: true, mismatch: true},
			// The sender restarts under the same key and is checked again.
			{obj: 0, trace: 1, to: size, checked: true, mismatch: true},
		}},
		{name: "late after verdict", paths: true, verified: 1, late: 350, steps: []sinkStep{
			inOrder(0, 1),
			{obj: 0, trace: 1, from: 250, to: 600},
		}},
		{name: "late after retire", late: size - 1000, steps: []sinkStep{
			{obj: 0, trace: 1, to: 1000},
			{obj: 0, trace: 1, retire: true},
			{obj: 0, trace: 1, from: 1000, to: size},
		}},
		{name: "retired id under a fresh trace verifies", steps: []sinkStep{
			inOrder(0, 1),
			{obj: 0, trace: 1, retire: true},
			inOrder(0, 2),
		}},
		{name: "zero trace leaves no tombstone", steps: []sinkStep{
			inOrder(0, 0),
			{obj: 0, trace: 0, retire: true},
			inOrder(0, 0),
		}},
		{name: "oldest evicted to unchecked", live: maxRecords, evictions: 2, steps: overfill},
		{name: "byte budget", size: 34 << 20, live: 1, evictions: 1, steps: []sinkStep{
			// One object under two trace ids is two records. The first
			// buffers 33 MiB ahead of its frontier; the second would take
			// the sink past its budget and degrades instead.
			{obj: 0, trace: 1, from: 1 << 20, to: 34 << 20},
			{obj: 0, trace: 2, from: 1 << 20, to: 33 << 20},
			{obj: 0, trace: 2, to: 1 << 20},
			{obj: 0, trace: 1, to: 1 << 20, checked: true},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			objSize := tc.size
			if objSize == 0 {
				objSize = size
			}
			reg := obs.NewRegistry()
			reports := make(chan Report, 1)
			k := NewSink(func(r Report) { reports <- r }, reg)
			objects := make(map[int][]byte)
			for i, st := range tc.steps {
				id, tid := sinkObject(st.obj), sinkTrace(st.trace)
				if st.retire {
					k.Retire(id, tid)
					continue
				}
				payload, ok := objects[st.obj]
				if !ok {
					payload = make([]byte, objSize)
					FillPattern(payload, id, 0)
					objects[st.obj] = payload
				}
				want := wire.ContentDigest{Size: objSize, Sum: sha256.Sum256(payload)}
				if tc.bad {
					want.Sum[0] ^= 1
				}
				h := &wire.Header{Version: wire.Version1, Type: wire.TypeData, Session: id}
				h.AddOption(wire.ContentDigestOption(want))
				if st.from > 0 {
					h.AddOption(wire.ResumeOffsetOption(uint64(st.from)))
				}
				if !tid.IsZero() {
					h.AddOption(wire.TraceIDOption(tid))
				}
				if tc.paths {
					h.AddOption(wire.PathIndexOption(uint16(i%2), 2))
				}
				if tc.framed {
					h.AddOption(wire.ChunkChecksumOption())
				}
				r := sinkSession(t, k, reports, h, payload, st.from, st.to, tc.framed)
				if r.Bytes != st.to-st.from || r.Offset != st.from {
					t.Fatalf("step %d: report covers [%d, +%d), want [%d, %d)", i, r.Offset, r.Bytes, st.from, st.to)
				}
				if r.Checked != st.checked || errors.Is(r.Err, wire.ErrDigest) != st.mismatch || (r.Err != nil && !st.mismatch) {
					t.Fatalf("step %d: checked=%v err=%v, want checked=%v mismatch=%v", i, r.Checked, r.Err, st.checked, st.mismatch)
				}
				if b := k.buffered.Load(); b > maxBuffered {
					t.Fatalf("step %d: %d bytes buffered, over the %d budget", i, b, maxBuffered)
				}
			}
			if n := k.Live(); n != tc.live {
				t.Fatalf("%d live records, want %d", n, tc.live)
			}
			for _, c := range []struct {
				name string
				want int64
			}{
				{MetricSinkLateBytes, tc.late},
				{MetricSinkEvictions, tc.evictions},
				{MetricMultipathDigestVerified, tc.verified},
			} {
				if v := reg.Counter(c.name).Value(); v != c.want {
					t.Fatalf("%s = %d, want %d", c.name, v, c.want)
				}
			}
			var mismatches int64
			for _, st := range tc.steps {
				if st.mismatch {
					mismatches++
				}
			}
			if v := reg.Counter(MetricDigestMismatches).Value(); v != mismatches {
				t.Fatalf("%s = %d, want %d", MetricDigestMismatches, v, mismatches)
			}
			// Retiring every key leaves nothing behind: no record, no
			// buffered byte, and no more tombstones than the ring holds.
			for _, st := range tc.steps {
				k.Retire(sinkObject(st.obj), sinkTrace(st.trace))
			}
			if n, b := k.Live(), k.buffered.Load(); n != 0 || b != 0 {
				t.Fatalf("after retiring every key: %d live records, %d bytes buffered", n, b)
			}
			if n := len(k.tombs) + len(k.oldTombs); n > maxTombstones {
				t.Fatalf("%d tombstones, over the %d budget", n, maxTombstones)
			}
		})
	}
}

// TestSinkTombstoneBudget: the tombstones never outgrow their budget,
// and the oldest are forgotten first.
func TestSinkTombstoneBudget(t *testing.T) {
	k := NewSink(nil, nil)
	for i := 0; i < maxTombstones+10; i++ {
		k.Retire(sinkObject(i), sinkTrace(1))
	}
	if n := len(k.tombs) + len(k.oldTombs); n > maxTombstones {
		t.Fatalf("%d tombstones, over the %d budget", n, maxTombstones)
	}
	if k.open(recordKey{sinkObject(0), sinkTrace(1)}) == nil {
		t.Fatal("the oldest tombstone survived a full budget")
	}
	if k.open(recordKey{sinkObject(maxTombstones + 9), sinkTrace(1)}) != nil {
		t.Fatal("the newest tombstone is missing")
	}
}

// TestSinkConcurrentRanges: the ranges of one multipath object, one of
// them delivered twice, land concurrently on one record; exactly one
// session reports the verdict, and nothing is left behind.
func TestSinkConcurrentRanges(t *testing.T) {
	const ranges, span = 8, 64 << 10
	id, tid := sinkObject(1), sinkTrace(1)
	payload := make([]byte, ranges*span)
	FillPattern(payload, id, 0)
	want := wire.ContentDigest{Size: int64(len(payload)), Sum: sha256.Sum256(payload)}
	reg := obs.NewRegistry()
	reports := make(chan Report, ranges+1) // one per session
	k := NewSink(func(r Report) { reports <- r }, reg)

	var wg sync.WaitGroup
	for i := 0; i <= ranges; i++ {
		from := int64(i%ranges) * span // range 0 goes twice
		h := &wire.Header{Version: wire.Version1, Type: wire.TypeData, Session: id}
		h.AddOption(wire.ContentDigestOption(want))
		h.AddOption(wire.TraceIDOption(tid))
		h.AddOption(wire.PathIndexOption(uint16(i%2), 2))
		if from > 0 {
			h.AddOption(wire.ResumeOffsetOption(uint64(from)))
		}
		client, server := net.Pipe()
		wg.Add(2)
		go func() {
			defer wg.Done()
			k.Handle(&lsl.Session{Conn: server, Header: h}) //nolint:errcheck // the report carries the verdict
		}()
		go func() {
			defer wg.Done()
			client.Write(payload[from : from+span]) //nolint:errcheck // a short write shows in the report
			client.Close()
		}()
	}
	wg.Wait()
	close(reports)
	var checked int
	for r := range reports {
		if r.Err != nil {
			t.Fatalf("range at %d: %v", r.Offset, r.Err)
		}
		if r.Checked {
			checked++
		}
	}
	if checked != 1 {
		t.Fatalf("%d sessions reported the verdict, want exactly 1", checked)
	}
	if v := reg.Counter(MetricMultipathDigestVerified).Value(); v != 1 {
		t.Fatalf("%s = %d, want 1", MetricMultipathDigestVerified, v)
	}
	if n, b := k.Live(), k.buffered.Load(); n != 0 || b != 0 {
		t.Fatalf("%d live records, %d bytes buffered after the verdict", n, b)
	}
}

// TestUnawaitedReportsBounded: the reports nobody awaits — a sender
// that gave up, a stolen range's duplicate — stay within a constant
// count budget, and the newest still answers Await.
func TestUnawaitedReportsBounded(t *testing.T) {
	reports := make(chan Report, 1)
	k := NewSink(func(r Report) { reports <- r }, nil)
	filed := func() (n int) {
		k.mu.Lock()
		defer k.mu.Unlock()
		for _, gen := range []map[Query][]Report{k.reps, k.oldReps} {
			for _, l := range gen {
				n += len(l)
			}
		}
		return n
	}
	payload := make([]byte, 16)
	const sessions = 2*maxReports + 1
	for i := 0; i < sessions; i++ {
		id := sinkObject(i)
		FillPattern(payload, id, 0)
		sinkSession(t, k, reports, &wire.Header{Version: wire.Version1, Type: wire.TypeData, Session: id}, payload, 0, int64(len(payload)), false)
		if i%512 == 0 {
			if n := filed(); n > maxReports {
				t.Fatalf("%d reports filed after %d sessions, budget %d", n, i+1, maxReports)
			}
		}
	}
	if n := filed(); n > maxReports {
		t.Fatalf("%d reports filed after %d sessions, budget %d", n, sessions, maxReports)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if r, err := k.Await(ctx, Query{ID: sinkObject(sessions - 1)}); err != nil || r.Bytes != int64(len(payload)) {
		t.Fatalf("newest report = %+v, %v", r, err)
	}
	gone, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if r, err := k.Await(gone, Query{ID: sinkObject(0)}); err == nil {
		t.Fatalf("the oldest report is still filed: %+v", r)
	}
}

// TestStatusQuery asks a depot's sink for its reports over the status
// session: a depot without a sink refuses, a filed report is answered
// with its acked end and verdict, a query waits for a report still to
// come, and a depot whose one admission slot is taken still answers.
func TestStatusQuery(t *testing.T) {
	bare, err := New(Config{Self: statusSelf, Dial: noDial})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := query(pipeDialer(bare), sinkObject(1), sinkTrace(1), 0); !errors.Is(err, lsl.ErrRefused) {
		t.Fatalf("status query to a depot without a sink: %v, want lsl.ErrRefused", err)
	}

	k := NewSink(nil, nil)
	srv, err := New(Config{Self: statusSelf, Dial: noDial, Local: k.Handle, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := pipeDialer(srv)
	const size = 3000
	send := func(id wire.SessionID, tid wire.TraceID, from, to int64, want wire.ContentDigest) *lsl.Session {
		sess, err := lsl.Start(d, lsl.Spec{ID: id, Dst: statusSelf, Offset: from,
			Options: []wire.Option{wire.TraceIDOption(tid), wire.ContentDigestOption(want)}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := WritePattern(sess, id, from, to); err != nil {
			t.Fatal(err)
		}
		return sess
	}
	// A session releases the depot's one admission slot only after it
	// files the report a query may already have heard: the next session
	// waits for the slot, or the depot refuses it while it writes.
	idle := func() {
		for deadline := time.Now().Add(5 * time.Second); len(srv.admit) > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the depot's admission slot was never released")
			}
		}
	}

	// A query for a report still to come waits for it; the resumed
	// session completes the digest and the verdict query hears it.
	id, tid := sinkObject(2), sinkTrace(2)
	send(id, tid, 0, 1000, PatternDigest(id, size)).Close()
	answer := make(chan wire.Status, 1)
	go func() {
		st, err := query(d, id, tid, 1000)
		if err != nil {
			t.Error(err)
		}
		answer <- st
	}()
	time.Sleep(20 * time.Millisecond)
	idle()
	send(id, tid, 1000, size, PatternDigest(id, size)).Close()
	if st := <-answer; st != (wire.Status{End: size, Verdict: wire.VerdictOK, Checked: true}) {
		t.Fatalf("status of the resumed session = %+v", st)
	}
	if st, err := query(d, id, tid, VerdictOffset); err != nil || !st.Checked || st.Err() != nil {
		t.Fatalf("verdict = %+v, %v", st, err)
	}

	// A mismatch reaches the sender as wire.ErrDigest, while an open
	// session holds the depot's one admission slot.
	id, tid = sinkObject(3), sinkTrace(3)
	bad := PatternDigest(id, size)
	bad.Sum[0] ^= 1
	idle()
	send(id, tid, 0, size, bad).Close()
	hold, err := lsl.Start(d, lsl.Spec{Dst: statusSelf})
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	for deadline := time.Now().Add(5 * time.Second); srv.active.Load() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the holding session was never admitted")
		}
	}
	st, err := query(d, id, tid, 0)
	if err != nil || !errors.Is(st.Err(), wire.ErrDigest) || st.End != size {
		t.Fatalf("status of a mismatch under load = %+v (%v), %v", st, st.Err(), err)
	}
}

// statusSelf is the endpoint of the depots the status tests query.
var statusSelf = wire.MustEndpoint("10.9.0.1:7411")

var noDial = lsl.DialerFunc(func(string) (net.Conn, error) { return nil, errors.New("no onward hops") })

// pipeDialer connects each dial to srv over an in-memory pipe.
func pipeDialer(srv *Server) lsl.Dialer {
	return lsl.DialerFunc(func(string) (net.Conn, error) {
		c, s := net.Pipe()
		go srv.Handle(s)
		return c, nil
	})
}

// query asks the sink at statusSelf for the report of session id's
// range at off under trace tid.
func query(d lsl.Dialer, id wire.SessionID, tid wire.TraceID, off int64) (wire.Status, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return lsl.Status(ctx, d, lsl.Spec{ID: id, Dst: statusSelf, Offset: off, Options: []wire.Option{wire.TraceIDOption(tid)}})
}

// TestStatusPending: a query whose report is still to come is answered
// pending once statusWait passes, with the end its session has verified
// so far; one past maxStatusWaits waiting queries is answered pending
// at once; and a query after the session ended gets its report.
func TestStatusPending(t *testing.T) {
	k := NewSink(nil, nil)
	srv, err := New(Config{Self: statusSelf, Dial: noDial, Local: k.Handle})
	if err != nil {
		t.Fatal(err)
	}
	d := pipeDialer(srv)
	id, tid := sinkObject(4), sinkTrace(4)
	sess, err := lsl.Start(d, lsl.Spec{ID: id, Dst: statusSelf, Options: []wire.Option{wire.TraceIDOption(tid)}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := WritePattern(sess, id, 0, 1000); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	st, err := query(d, id, tid, 0)
	if err != nil || st != (wire.Status{End: 1000, Verdict: wire.VerdictPending}) || time.Since(start) < statusWait {
		t.Fatalf("status of an open session after %v = %+v, %v; want pending at 1000 after %v", time.Since(start), st, err, statusWait)
	}
	for k.waits.Load() != 0 {
		time.Sleep(time.Millisecond) // the answer counts out after its write
	}
	k.waits.Store(maxStatusWaits)
	start = time.Now()
	st, err = query(d, id, tid, 0)
	if err != nil || st.Verdict != wire.VerdictPending || time.Since(start) >= statusWait {
		t.Fatalf("status past the wait cap after %v = %+v, %v; want pending at once", time.Since(start), st, err)
	}
	k.waits.Store(0)
	sess.Close()
	if st, err := query(d, id, tid, 0); err != nil || st != (wire.Status{End: 1000}) {
		t.Fatalf("status of the ended session = %+v, %v", st, err)
	}
}
