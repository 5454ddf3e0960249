package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJSONSinkWritesValidLines(t *testing.T) {
	var buf strings.Builder
	sink := NewJSONSink(&buf)
	base := time.Date(2004, 11, 6, 0, 0, 0, 0, time.UTC)
	Emit(sink, Event{Time: base, Session: "ab12", Hop: 1, Kind: KindConnect, Peer: "10.0.0.3:7411"})
	Emit(sink, Event{Time: base.Add(time.Second), Session: "ab12", Hop: 1, Kind: KindLastByte, Bytes: 4096})

	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	var events []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) != 2 {
		t.Fatalf("decoded %d events", len(events))
	}
	if events[0].Kind != KindConnect || events[1].Bytes != 4096 {
		t.Fatalf("events = %+v", events)
	}
}

func TestEmitStampsTimeAndToleratesNilSink(t *testing.T) {
	Emit(nil, Event{Kind: KindError}) // must not panic
	var mem MemorySink
	Emit(&mem, Event{Session: "x", Kind: KindAccept})
	got := mem.Events()
	if len(got) != 1 || got[0].Time.IsZero() {
		t.Fatalf("events = %+v", got)
	}
}

func TestMemorySinkConcurrentAndSessionFilter(t *testing.T) {
	var mem MemorySink
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := "a"
			if i%2 == 1 {
				id = "b"
			}
			for j := 0; j < 100; j++ {
				mem.Emit(Event{Session: id, Kind: KindSample})
			}
		}()
	}
	wg.Wait()
	if n := len(mem.Events()); n != 800 {
		t.Fatalf("total events = %d", n)
	}
	if n := len(mem.Session("a")); n != 400 {
		t.Fatalf("session a events = %d", n)
	}
}

func TestMultiSink(t *testing.T) {
	var a, b MemorySink
	sink := MultiSink{&a, nil, &b}
	Emit(sink, Event{Session: "s", Kind: KindDeliver})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatal("multi sink did not fan out")
	}
}

func TestStripeOfRoundTrips(t *testing.T) {
	e := Event{Stripe: StripeOf(0)}
	if k, ok := e.StripeIndex(); !ok || k != 0 {
		t.Fatalf("StripeIndex = %d, %v — stripe 0 must stay distinguishable from unstriped", k, ok)
	}
	if _, ok := (Event{}).StripeIndex(); ok {
		t.Fatal("unstriped event reported a stripe")
	}
	data, err := json.Marshal(Event{Session: "s", Kind: KindConnect, Stripe: StripeOf(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"stripe":0`) {
		t.Fatalf("stripe 0 omitted from JSON: %s", data)
	}
	data, _ = json.Marshal(Event{Session: "s", Kind: KindConnect})
	if strings.Contains(string(data), "stripe") {
		t.Fatalf("unstriped event serialized a stripe: %s", data)
	}
}

// errWriter fails every write, simulating a full disk under -trace-out.
type errWriter struct{}

func (errWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

func TestJSONSinkCountsEncodeDrops(t *testing.T) {
	reg := NewRegistry()
	sink := NewJSONSink(errWriter{}).CountDrops(reg.Counter(MetricTraceDrops))
	for i := 0; i < 3; i++ {
		sink.Emit(Event{Session: "s", Kind: KindSample}) // must not panic or propagate
	}
	if sink.Drops() != 3 {
		t.Fatalf("drops = %d, want 3", sink.Drops())
	}
	if got := reg.Counter(MetricTraceDrops).Value(); got != 3 {
		t.Fatalf("%s = %d, want 3", MetricTraceDrops, got)
	}
}

// TestEmitDisabledIsZeroAlloc guards the instrumentation's off switch:
// with no sink configured, an Emit on the data path must cost nothing.
func TestEmitDisabledIsZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		Emit(nil, Event{Session: "s", Hop: 1, Kind: KindFirstByte})
	})
	if allocs != 0 {
		t.Fatalf("Emit(nil, ...) allocates %v per call", allocs)
	}
}

func BenchmarkEmit(b *testing.B) {
	b.Run("nil", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Emit(nil, Event{Session: "s", Hop: 1, Kind: KindFirstByte})
		}
	})
	b.Run("json", func(b *testing.B) {
		sink := NewJSONSink(io.Discard)
		e := Event{Time: time.Now(), Session: "s", Hop: 1, Kind: KindFirstByte}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Emit(sink, e)
		}
	})
	b.Run("collector", func(b *testing.B) {
		c := NewCollector(b.N + 1)
		defer c.Close()
		e := Event{Time: time.Now(), Trace: "t", Session: "s", Kind: KindSample}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Emit(e)
		}
	})
}

// TestOpenTrace: no flags open nothing; a -trace-out file gets each
// event as a JSON line, and an event it drops (here, after close)
// counts into the registry's trace_drops_total.
func TestOpenTrace(t *testing.T) {
	if sink, closeAll, err := OpenTrace("", "", nil); sink != nil || err != nil {
		t.Fatalf("no flags: sink %v, err %v; want neither", sink, err)
	} else {
		closeAll()
	}
	if _, _, err := OpenTrace(filepath.Join(t.TempDir(), "missing", "t.jsonl"), "", nil); err == nil {
		t.Fatal("a file in a missing directory opened")
	}
	path, reg := filepath.Join(t.TempDir(), "t.jsonl"), NewRegistry()
	sink, closeAll, err := OpenTrace(path, "", reg)
	if err != nil {
		t.Fatal(err)
	}
	Emit(sink, Event{Kind: KindAccept, Session: "s1"})
	closeAll()
	Emit(sink, Event{Kind: KindAccept, Session: "s2"})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 1 || !strings.Contains(string(data), `"s1"`) {
		t.Fatalf("trace file holds %d lines:\n%s", lines, data)
	}
	if n := reg.Counter(MetricTraceDrops).Value(); n != 1 {
		t.Fatalf("%s = %d, want the event emitted after close", MetricTraceDrops, n)
	}
}
