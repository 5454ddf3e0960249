package depot

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// TestChainTraceEventOrdering drives a transfer through a two-depot
// chain (A → B → C) and checks the emitted trace: every hop reports its
// lifecycle events in order, with correct hop indices, node identities,
// and byte totals, and the shared registry aggregates both depots.
func TestChainTraceEventOrdering(t *testing.T) {
	h := newHarness(t)
	sink := &obs.MemorySink{}
	reg := obs.NewRegistry()
	shared := Config{Metrics: reg, Trace: sink, Sessions: obs.NewSessionTable()}
	h.addDepot(epB, shared) // relay, hop 1
	h.addDepot(epC, shared) // sink, hop 2

	sess, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epC, []wire.Endpoint{epB})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("traced! "), 16<<10)
	go func() {
		sess.Write(payload)
		sess.Close()
	}()
	h.waitDelivery(sess.ID())

	id := sess.ID().String()
	// The deliver event lands after the local handler returns.
	waitFor(t, func() bool {
		for _, e := range sink.Session(id) {
			if e.Kind == obs.KindDeliver {
				return true
			}
		}
		return false
	})

	byHop := map[int][]obs.Event{}
	for _, e := range sink.Session(id) {
		byHop[e.Hop] = append(byHop[e.Hop], e)
	}
	assertKinds := func(hop int, want ...string) []obs.Event {
		t.Helper()
		got := byHop[hop]
		if len(got) != len(want) {
			t.Fatalf("hop %d: %d events, want %d (%v)", hop, len(got), len(want), got)
		}
		for i, e := range got {
			if e.Kind != want[i] {
				t.Fatalf("hop %d event %d = %q, want %q", hop, i, e.Kind, want[i])
			}
		}
		return got
	}
	relay := assertKinds(1, obs.KindAccept, obs.KindConnect, obs.KindFirstByte, obs.KindLastByte)
	final := assertKinds(2, obs.KindAccept, obs.KindDeliver)

	for _, e := range relay {
		if e.Node != epB.String() {
			t.Fatalf("relay event node = %q", e.Node)
		}
	}
	if relay[1].Peer != epC.String() {
		t.Fatalf("relay connect peer = %q, want %s", relay[1].Peer, epC)
	}
	if relay[3].Bytes != int64(len(payload)) {
		t.Fatalf("relay last-byte bytes = %d, want %d", relay[3].Bytes, len(payload))
	}
	if !relay[2].Time.Before(relay[3].Time) && !relay[2].Time.Equal(relay[3].Time) {
		t.Fatal("first-byte after last-byte")
	}
	if final[0].Node != epC.String() || final[1].Bytes != int64(len(payload)) {
		t.Fatalf("sink events = %+v", final)
	}

	snap := reg.Snapshot()
	if snap.Counters[MetricSessionsAccepted] != 2 {
		t.Fatalf("accepted = %d, want 2 (both depots share the registry)", snap.Counters[MetricSessionsAccepted])
	}
	if snap.Counters[MetricBytesForwarded] != int64(len(payload)) {
		t.Fatalf("bytes forwarded = %d", snap.Counters[MetricBytesForwarded])
	}
	if snap.Counters[MetricBytesDelivered] != int64(len(payload)) {
		t.Fatalf("bytes delivered = %d", snap.Counters[MetricBytesDelivered])
	}
	if hs := snap.Histograms[MetricSublinkMbps]; hs.Count < 1 {
		t.Fatalf("sublink throughput histogram empty: %+v", hs)
	}
	// The relay's session ends after it has closed the downstream
	// sublink, so it can trail the sink's deliver event.
	waitFor(t, func() bool { return reg.Snapshot().Histograms[MetricSessionSeconds].Count == 2 })
}

// TestBackpressureOccupancyGauge rate-limits the downstream side of a
// relay (the sink refuses to read until released) and watches the
// relay's pipeline occupancy gauge rise — the live form of the paper's
// Figure 5 back-pressure knee — then drain back to zero.
func TestBackpressureOccupancyGauge(t *testing.T) {
	h := newHarness(t)
	reg := obs.NewRegistry()
	release := make(chan struct{})
	drained := make(chan struct{})
	h.addDepot(epC, Config{Local: func(s *lsl.Session) error {
		<-release // downstream stalls: no reads until released
		io.Copy(io.Discard, s)
		close(drained)
		return nil
	}})
	h.addDepot(epB, Config{Metrics: reg, PipelineBytes: 4 * chunkSize})

	sess, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epC, []wire.Endpoint{epB})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, chunkSize)
		for i := 0; i < 64; i++ {
			if _, err := sess.Write(buf); err != nil {
				return
			}
		}
		sess.Close()
	}()

	occupancy := reg.Gauge(MetricPipelineOccupancy)
	// With the sink stalled, the relay's bounded pipeline must fill.
	waitFor(t, func() bool { return occupancy.Value() >= int64(2*chunkSize) })

	close(release)
	<-drained
	// Everything queued was either written or drained on shutdown.
	waitFor(t, func() bool { return occupancy.Value() == 0 })
	if reg.Counter(MetricPumpStallNanos).Value() <= 0 {
		t.Fatal("no stall time recorded despite a full pipeline")
	}
}

// partialFailWriter accepts its first write whole, then takes 7 bytes
// of the second and fails — the shape of a sublink dying mid-chunk.
type partialFailWriter struct{ calls int }

func (w *partialFailWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls == 1 {
		return len(p), nil
	}
	return 7, errors.New("sublink died")
}

// TestPumpPartialBytesAccounted is the regression test for the error
// path: bytes that reached the downstream writer before a failure must
// appear in the stats and metrics, and the occupancy the queued chunks
// held must drain.
func TestPumpPartialBytesAccounted(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := New(Config{
		Self: epB,
		Dial: lsl.DialerFunc(func(string) (net.Conn, error) {
			return nil, errors.New("unused")
		}),
		Metrics:       reg,
		PipelineBytes: chunkSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(make([]byte, 3*chunkSize))
	w := &partialFailWriter{}
	written, err := srv.pump(w, checkedSource(src, false, nil), nil)
	if err == nil {
		t.Fatal("pump succeeded through a failing writer")
	}
	want := int64(chunkSize + 7)
	if written != want {
		t.Fatalf("pump returned %d bytes, want %d", written, want)
	}
	if got := srv.Stats().BytesForwarded; got != want {
		t.Fatalf("Stats().BytesForwarded = %d, want %d — partial transfer vanished", got, want)
	}
	if got := reg.Counter(MetricBytesForwarded).Value(); got != want {
		t.Fatalf("metric %s = %d, want %d", MetricBytesForwarded, got, want)
	}
	waitFor(t, func() bool { return reg.Gauge(MetricPipelineOccupancy).Value() == 0 })
}

// gatedFailWriter fails its first write once released.
type gatedFailWriter struct{ release chan struct{} }

func (w gatedFailWriter) Write([]byte) (int, error) {
	<-w.release
	return 0, errors.New("sublink died")
}

// TestPumpWriteErrorDrainsGrownQueue lets the reader run far enough
// ahead of a stuck writer that the queue has chained several segments,
// then fails the write: the drain must follow the chain to its end, or
// the reader goroutine and the occupancy it holds are left behind.
func TestPumpWriteErrorDrainsGrownQueue(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := New(Config{
		Self: epB,
		Dial: lsl.DialerFunc(func(string) (net.Conn, error) {
			return nil, errors.New("unused")
		}),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 400 // past the 16- and 64-slot segments, into the third
	w := gatedFailWriter{release: make(chan struct{})}
	occupancy := reg.Gauge(MetricPipelineOccupancy)
	pumped := make(chan error, 1)
	go func() {
		_, err := srv.pump(w, checkedSource(bytes.NewReader(make([]byte, chunks*chunkSize)), false, nil), nil)
		pumped <- err
	}()
	// The writer holds one chunk; the rest sit in the queue.
	waitFor(t, func() bool { return occupancy.Value() >= (chunks-1)*chunkSize })
	close(w.release)
	if err := <-pumped; err == nil {
		t.Fatal("pump succeeded through a failing writer")
	}
	waitFor(t, func() bool { return occupancy.Value() == 0 })
}

// TestHopIndexPropagation checks the wire-level hop counting a trace
// depends on: a depot one hop in stamps the forwarded header so the
// next depot knows it is hop 2.
func TestHopIndexPropagation(t *testing.T) {
	h := newHarness(t)
	sink := &obs.MemorySink{}
	h.addDepot(epB, Config{Trace: sink})
	h.addDepot(epC, Config{Trace: sink})
	h.addDepot(epD, Config{Trace: sink})

	sess, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epD, []wire.Endpoint{epB, epC})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		sess.Write([]byte("count my hops"))
		sess.Close()
	}()
	h.waitDelivery(sess.ID())

	id := sess.ID().String()
	waitFor(t, func() bool {
		for _, e := range sink.Session(id) {
			if e.Kind == obs.KindDeliver {
				return true
			}
		}
		return false
	})
	hopOf := map[string]int{}
	for _, e := range sink.Session(id) {
		if e.Kind == obs.KindAccept {
			hopOf[e.Node] = e.Hop
		}
	}
	want := map[string]int{epB.String(): 1, epC.String(): 2, epD.String(): 3}
	for node, hop := range want {
		if hopOf[node] != hop {
			t.Fatalf("hop of %s = %d, want %d (all: %v)", node, hopOf[node], hop, hopOf)
		}
	}
}

// TestSessionTableTracksInFlight holds a session open and checks it is
// visible in the shared session table, then gone after it completes.
func TestSessionTableTracksInFlight(t *testing.T) {
	h := newHarness(t)
	table := obs.NewSessionTable()
	release := make(chan struct{})
	done := make(chan struct{})
	h.addDepot(epB, Config{
		Sessions: table,
		Local: func(s *lsl.Session) error {
			<-release
			io.Copy(io.Discard, s)
			close(done)
			return nil
		},
	})
	sess, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epB, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess.Write([]byte("hold"))
	waitFor(t, func() bool { return table.Len() == 1 })
	infos := table.Snapshot()
	if len(infos) != 1 || infos[0].ID != sess.ID().String() || infos[0].Type != "data" {
		t.Fatalf("session table = %+v", infos)
	}
	close(release)
	sess.Close()
	<-done
	waitFor(t, func() bool { return table.Len() == 0 })
}
