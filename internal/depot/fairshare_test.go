package depot

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/emu"
	"github.com/netlogistics/lsl/internal/fairshare"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// TestAdmissionAtomic races 64 simultaneous dials against a
// MaxSessions:1 depot: the slot semaphore must never let two data
// sessions run concurrently, no matter how the arrivals interleave.
// (The previous load gate read the active count and then acted on it,
// so two arrivals could both pass a limit with room for one.)
func TestAdmissionAtomic(t *testing.T) {
	const dials = 64
	h := newHarness(t)
	var inFlight, peak, violations atomic.Int64
	h.addDepot(epB, Config{
		MaxSessions: 1,
		Local: func(s *lsl.Session) error {
			cur := inFlight.Add(1)
			defer inFlight.Add(-1)
			if cur > peak.Load() {
				peak.Store(cur)
			}
			if cur > 1 {
				violations.Add(1)
			}
			// Hold the slot long enough for concurrent arrivals to pile
			// into the gate while this session is active.
			time.Sleep(5 * time.Millisecond)
			io.Copy(io.Discard, s)
			return nil
		},
	})

	var wg sync.WaitGroup
	for i := 0; i < dials; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epB, nil)
			if err != nil {
				return
			}
			defer s.Close()
			s.Write([]byte("x"))
			s.Close()
			// Wait for refusal or teardown so the depot finishes with us.
			wire.ReadHeader(s)
		}()
	}
	wg.Wait()
	waitFor(t, func() bool {
		st := h.servers[epB].Stats()
		return st.Accepted+st.Refused >= dials
	})
	if v := violations.Load(); v > 0 {
		t.Fatalf("%d sessions ran concurrently past MaxSessions=1 (peak %d)", v, peak.Load())
	}
	st := h.servers[epB].Stats()
	if st.Accepted+st.Refused != dials || st.Accepted < 1 {
		t.Fatalf("accepted %d + refused %d, want %d total with at least one accept",
			st.Accepted, st.Refused, dials)
	}
}

// TestAdmissionQueue: with a queue configured, an over-limit session
// waits for the slot instead of being refused, is admitted when the
// slot frees, and the wait is counted and traced; a session beyond the
// queue's depth is still refused immediately.
func TestAdmissionQueue(t *testing.T) {
	h := newHarness(t)
	var events []obs.Event
	var evmu sync.Mutex
	block := make(chan struct{})
	h.addDepot(epB, Config{
		MaxSessions: 1,
		QueueDepth:  1,
		Trace: obs.SinkFunc(func(e obs.Event) {
			evmu.Lock()
			events = append(events, e)
			evmu.Unlock()
		}),
		Local: func(s *lsl.Session) error {
			<-block
			io.Copy(io.Discard, s)
			return nil
		},
	})

	// First session occupies the only slot.
	s1, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epB, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	waitFor(t, func() bool { return h.servers[epB].Stats().Accepted == 1 })

	// Second session queues rather than being refused.
	s2, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epB, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	waitFor(t, func() bool { return h.servers[epB].waiting.Load() == 1 })

	// Third session overflows the depth-1 queue: refused immediately.
	s3, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epB, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	hd, err := wire.ReadHeader(s3)
	if err != nil {
		t.Fatal(err)
	}
	if hd.Type != wire.TypeRefuse {
		t.Fatalf("overflow session response = %d, want refuse", hd.Type)
	}

	// Free the slot: the queued session must be admitted and served.
	close(block)
	s1.Close()
	s2.Write([]byte("queued payload"))
	s2.Close()
	waitFor(t, func() bool { return h.servers[epB].Stats().Accepted == 2 })

	st := h.servers[epB].Stats()
	if st.Queued != 1 || st.QueueTimeouts != 0 || st.Refused != 1 {
		t.Fatalf("stats = %+v, want 1 queued admission, 0 timeouts, 1 refusal", st)
	}
	evmu.Lock()
	defer evmu.Unlock()
	var sawQueued bool
	for _, e := range events {
		if e.Kind == obs.KindQueued {
			sawQueued = true
		}
	}
	if !sawQueued {
		t.Fatal("no queued trace event emitted for the waiting session")
	}
}

// TestAdmissionQueueTimeout: a queued session whose slot never frees is
// refused once QueueTimeout elapses, and the timeout is counted.
func TestAdmissionQueueTimeout(t *testing.T) {
	h := newHarness(t)
	block := make(chan struct{})
	defer close(block)
	h.addDepot(epB, Config{
		MaxSessions:  1,
		QueueDepth:   4,
		QueueTimeout: 50 * time.Millisecond,
		Local: func(s *lsl.Session) error {
			<-block
			io.Copy(io.Discard, s)
			return nil
		},
	})

	s1, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epB, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	waitFor(t, func() bool { return h.servers[epB].Stats().Accepted == 1 })

	s2, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epB, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	hd, err := wire.ReadHeader(s2)
	if err != nil {
		t.Fatal(err)
	}
	if hd.Type != wire.TypeRefuse {
		t.Fatalf("timed-out session response = %d, want refuse", hd.Type)
	}
	st := h.servers[epB].Stats()
	if st.QueueTimeouts != 1 || st.Queued != 0 {
		t.Fatalf("stats = %+v, want exactly one queue timeout", st)
	}
}

// weightedSplit runs two sessions of weights 2 and 1 from A through the
// trunk-scheduled depot B to a sink at C for a measurement window and
// returns the bytes C received from each, with C's per-session counter
// for what the caller sends next. frame 0 sends plain sessions in
// 32 KiB writes; otherwise the sessions are checksummed and framed at
// frame bytes, so B's pump acquires credit a whole frame at a time.
func weightedSplit(t *testing.T, h *harness, frame int) (heavy, light int64, received func(wire.SessionID) int64) {
	const (
		chunk = 32 << 10
		// One DRR round is 3 chunks = ~3ms of trunk time at this rate,
		// comfortably above sleep-timer granularity.
		trunkRate = 32 << 20
		warmup    = 100 * time.Millisecond
		measure   = 400 * time.Millisecond
	)
	trunk := fairshare.New(fairshare.Config{Rate: trunkRate})
	h.addDepot(epB, Config{FairShare: trunk, PipelineBytes: 4 * wire.MaxFrameLen})

	// The sink attributes delivered bytes per session.
	var byID sync.Map // wire.SessionID -> *atomic.Int64
	h.addDepot(epC, Config{
		Local: func(s *lsl.Session) error {
			v, _ := byID.LoadOrStore(s.ID(), new(atomic.Int64))
			ctr := v.(*atomic.Int64)
			var r io.Reader = s
			if frame > 0 {
				r = wire.NewFrameReader(s)
			}
			buf := make([]byte, chunk)
			for {
				n, err := r.Read(buf)
				ctr.Add(int64(n))
				if err != nil {
					return nil
				}
			}
		},
	})

	var stop atomic.Bool
	var wg sync.WaitGroup
	payload := make([]byte, max(chunk, frame))
	ids := make([]wire.SessionID, 2)
	for i, w := range []uint16{2, 1} {
		opts := []wire.Option{wire.SessionWeightOption(w)}
		if frame > 0 {
			opts = append(opts, wire.ChunkChecksumOption())
		}
		s, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epC, []wire.Endpoint{epB}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = s.ID()
		var out io.Writer = s
		if frame > 0 {
			out = wire.NewFrameWriter(s)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.Close()
			for !stop.Load() {
				if _, err := out.Write(payload); err != nil {
					return
				}
			}
		}()
	}
	received = func(id wire.SessionID) int64 {
		if v, ok := byID.Load(id); ok {
			return v.(*atomic.Int64).Load()
		}
		return 0
	}
	time.Sleep(warmup)
	w0, w1 := received(ids[0]), received(ids[1])
	time.Sleep(measure)
	heavy, light = received(ids[0])-w0, received(ids[1])-w1
	stop.Store(true)
	wg.Wait()
	return heavy, light, received
}

// checkSplit holds a measured 2:1 split to the 15 % tolerance.
func checkSplit(t *testing.T, heavy, light int64) {
	t.Helper()
	const tolerance = 0.15
	if light <= 0 {
		t.Fatalf("light session moved no bytes in the measurement window (heavy %d)", heavy)
	}
	ratio := float64(heavy) / float64(light)
	if ratio < 2*(1-tolerance) || ratio > 2*(1+tolerance) {
		t.Fatalf("2:1 weighted sessions measured %.2f:1 (bytes %d vs %d)", ratio, heavy, light)
	}
}

// TestFairShareWholeFrames: the split holds when the pump acquires
// credit a frame at a time — at the largest frame, which is what the
// scheduler's quantum has to cover for weights to mean anything, and at
// the 32 KiB + 8 of every core sender.
func TestFairShareWholeFrames(t *testing.T) {
	for _, frame := range []int{wire.MaxFramePayload, 32 << 10} {
		heavy, light, _ := weightedSplit(t, newHarness(t), frame)
		checkSplit(t, heavy, light)
	}
}

// TestFairShare is the acceptance test for the multi-tenant scheduler:
// two concurrent sessions with weights 2 and 1 forwarded through one
// depot whose downstream trunk the scheduler arbitrates must see
// throughput near a 2:1 split, and a scheduler with no trunk rate must
// not cost the pump measurable aggregate throughput.
func TestFairShare(t *testing.T) {
	const chunk = 32 << 10
	h := newHarness(t)
	heavy, light, received := weightedSplit(t, h, 0)
	checkSplit(t, heavy, light)
	payload := make([]byte, chunk)

	// Aggregate criterion: with the sublink itself as the bottleneck
	// and no trunk rate, the scheduled pump must keep pace with the
	// unscheduled one — arbitration is not allowed to cost throughput.
	h.net.SetDefaultLink(emu.LinkProps{Latency: time.Millisecond, Rate: 64 << 20})
	h.addDepot(epD, Config{PipelineBytes: 4 * chunk}) // unscheduled control
	epE := wire.MustEndpoint("10.0.0.5:7411")
	h.addDepot(epE, Config{ // scheduled, but no trunk rate: pure arbitration
		FairShare:     fairshare.New(fairshare.Config{}),
		PipelineBytes: 4 * chunk,
	})
	transfer := func(via wire.Endpoint) time.Duration {
		const total = 8 << 20
		s, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epC, []wire.Endpoint{via})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		for sent := 0; sent < total; sent += chunk {
			if _, err := s.Write(payload); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		waitFor(t, func() bool { return received(s.ID()) >= total })
		return time.Since(start)
	}
	// One sample of each leg compares host CPU noise, not arbitration:
	// take the median of interleaved samples, alternating which leg
	// goes first so drift falls on both.
	const samples = 5
	var unscheduled, scheduled []time.Duration
	for i := 0; i < samples; i++ {
		if i%2 == 0 {
			unscheduled = append(unscheduled, transfer(epD))
			scheduled = append(scheduled, transfer(epE))
		} else {
			scheduled = append(scheduled, transfer(epE))
			unscheduled = append(unscheduled, transfer(epD))
		}
	}
	u, s := medianDuration(unscheduled), medianDuration(scheduled)
	if limit := time.Duration(float64(u)*1.10) + 20*time.Millisecond; s > limit {
		t.Fatalf("scheduled pump took %v, unscheduled %v (medians of %d): more than 10%% overhead", s, u, samples)
	}
}

// medianDuration returns the middle of an odd number of samples.
func medianDuration(d []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), d...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}
