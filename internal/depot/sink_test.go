package depot

import (
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
					h.AddOption(wire.PathSetIDOption(wire.SessionID{9}))
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
		h.AddOption(wire.PathSetIDOption(wire.SessionID{9}))
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
