package depot

import (
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/cache"
	"github.com/netlogistics/lsl/internal/fairshare"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

func kernelRelays(reg *obs.Registry) int64 { return reg.Counter(MetricRelayKernelSessions).Value() }

// TestKernelRelayDeliversByteExact sends payloads around every window
// boundary through 1 and 3 depots over real sockets: the sink must see
// exactly the bytes sent, every hop must account exactly that many as
// forwarded, and every hop must report one first byte and one last
// byte.
func TestKernelRelayDeliversByteExact(t *testing.T) {
	sizes := []int64{0, 1, 4 << 10, chunkSize, chunkSize + 1,
		relayWindow - 1, relayWindow, relayWindow + 1, chunkSize + relayWindow, 64 << 20}
	for _, hops := range []int{1, 3} {
		for _, size := range sizes {
			t.Run(fmt.Sprintf("hops=%d/size=%d", hops, size), func(t *testing.T) {
				reg := obs.NewRegistry()
				events := &obs.MemorySink{}
				cfgs := make([]Config, hops)
				for i := range cfgs {
					cfgs[i] = Config{Trace: events, Metrics: reg}
				}
				rig := newTCPRig(t, cfgs...)
				got := rig.send(t, size)
				if got.err != nil || got.bytes != size {
					t.Fatalf("sink read %d of %d bytes, err %v", got.bytes, size, got.err)
				}
				for i, srv := range rig.depots {
					waitFor(t, func() bool { return srv.Stats().Forwarded == 1 })
					if st := srv.Stats(); st.BytesForwarded != size || st.Errors != 0 {
						t.Fatalf("hop %d: stats %+v, want %d bytes forwarded and no error", i+1, st, size)
					}
				}
				if n := kernelRelays(reg); n != int64(hops) {
					t.Fatalf("%d of %d hops took the kernel relay", n, hops)
				}
				first, last := map[int]int{}, map[int]int{}
				for _, e := range events.Session(got.id.String()) {
					switch e.Kind {
					case obs.KindFirstByte:
						first[e.Hop]++
					case obs.KindLastByte:
						last[e.Hop]++
						if e.Bytes != size {
							t.Fatalf("hop %d: last-byte event carries %d bytes, want %d", e.Hop, e.Bytes, size)
						}
					}
				}
				wantFirst := 1
				if size == 0 {
					wantFirst = 0 // no byte, no first byte: the pump reports none either
				}
				for hop := 1; hop <= hops; hop++ {
					if first[hop] != wantFirst || last[hop] != 1 {
						t.Fatalf("hop %d: %d first-byte and %d last-byte events, want %d and 1", hop, first[hop], last[hop], wantFirst)
					}
				}
			})
		}
	}
}

// TestRelaySelection is the selection matrix: only a session that arms
// no byte-touching stage, between two TCP sockets, may take the kernel
// relay. Every other row must reach the pump, which is where its stage
// runs. The connect event says which relay a session took.
func TestRelaySelection(t *testing.T) {
	payload := relayBlock[:256<<10]
	digest := wire.ContentDigest{Size: int64(len(payload)), Sum: sha256.Sum256(payload)}
	newCache := func() *cache.Cache {
		c, err := cache.New(cache.Config{MemoryBytes: 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		opts    []wire.Option
		framed  bool
		overMem bool // net.Pipe sublinks instead of TCP
		kernel  bool
	}{
		{name: "plain over TCP", kernel: true},
		{name: "idle timeout alone", cfg: Config{IdleTimeout: 5 * time.Second}, kernel: true},
		{name: "digest header, no cache", opts: []wire.Option{wire.ContentDigestOption(digest)}, kernel: true},
		{name: "checksummed header", opts: []wire.Option{wire.ChunkChecksumOption()}, framed: true},
		{name: "digest header and a cache", cfg: Config{Cache: newCache()}, opts: []wire.Option{wire.ContentDigestOption(digest)}},
		{name: "fair-share scheduler", cfg: Config{FairShare: fairshare.New(fairshare.Config{})}},
		{name: "fault injector, disarmed", cfg: Config{Faults: NewFaultInjector()}},
		{name: "plain over net.Pipe", overMem: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			events := &obs.MemorySink{}
			tc.cfg.Metrics, tc.cfg.Trace = reg, events
			var id wire.SessionID
			if tc.overMem {
				id = sendOverPipes(t, tc.cfg, payload)
			} else {
				rig := newTCPRig(t, tc.cfg)
				if tc.framed {
					rig.drain = func(s *lsl.Session) (int64, error) { return readCycle(wire.NewFrameReader(s)) }
				}
				sess := rig.open(t, tc.opts...)
				var w io.Writer = sess
				if tc.framed {
					w = wire.NewFrameWriter(sess)
				}
				_, werr := w.Write(payload)
				sess.Close()
				got := <-rig.sunk
				if werr != nil || got.err != nil || got.bytes != int64(len(payload)) {
					t.Fatalf("write err %v; sink read %d of %d bytes, err %v", werr, got.bytes, len(payload), got.err)
				}
				id = sess.ID()
			}
			want, detail := int64(0), "relay=pump"
			if tc.kernel {
				want, detail = 1, "relay=kernel"
			}
			waitFor(t, func() bool {
				for _, e := range events.Session(id.String()) {
					if e.Kind == obs.KindLastByte {
						return true
					}
				}
				return false
			})
			if got := kernelRelays(reg); got != want {
				t.Fatalf("%s = %d, want %d", MetricRelayKernelSessions, got, want)
			}
			for _, e := range events.Session(id.String()) {
				if e.Kind == obs.KindConnect && e.Detail != detail {
					t.Fatalf("connect event detail %q, want %q", e.Detail, detail)
				}
			}
		})
	}
}

// sendOverPipes drives one depot through Handle with net.Pipe on both
// sublinks and returns the session id once the sink has the payload.
func sendOverPipes(t *testing.T, cfg Config, payload []byte) wire.SessionID {
	t.Helper()
	done := make(chan int64, 1)
	cfg.Self = epB
	cfg.Dial = lsl.DialerFunc(func(string) (net.Conn, error) {
		near, far := net.Pipe()
		go func() {
			defer far.Close()
			sess, err := lsl.Accept(far)
			if err != nil {
				done <- -1
				return
			}
			n, _ := readCycle(sess)
			done <- n
		}()
		return near, nil
	})
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := lsl.Open(lsl.DialerFunc(func(string) (net.Conn, error) {
		near, far := net.Pipe()
		go srv.Handle(far)
		return near, nil
	}), epA, epC, []wire.Endpoint{epB})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Write(payload); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if n := <-done; n != int64(len(payload)) {
		t.Fatalf("sink read %d of %d bytes", n, len(payload))
	}
	return sess.ID()
}

// TestKernelRelayUpstreamReset kills the upstream sublink with a TCP
// reset mid-stream: the sink must see a short stream end, and the
// depot must count exactly one error.
func TestKernelRelayUpstreamReset(t *testing.T) {
	reg := obs.NewRegistry()
	rig := newTCPRig(t, Config{Metrics: reg})
	const size = 8 << 20
	sess := rig.open(t)
	if err := writeCycle(sess, size/2); err != nil {
		t.Fatal(err)
	}
	// Linger 0 turns Close into a reset instead of an orderly FIN.
	if err := sess.Conn.(*net.TCPConn).SetLinger(0); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	got := <-rig.sunk
	if got.bytes >= size || got.err != nil {
		t.Fatalf("sink read %d bytes (err %v) of a stream reset at %d", got.bytes, got.err, size/2)
	}
	srv := rig.depots[0]
	waitFor(t, func() bool { return srv.Stats().Errors == 1 })
	if st := srv.Stats(); st.Forwarded != 1 || st.BytesForwarded != got.bytes {
		t.Fatalf("depot forwarded %d bytes, sink read %d: %+v", st.BytesForwarded, got.bytes, st)
	}
	if kernelRelays(reg) != 1 {
		t.Fatal("the reset session did not take the kernel relay")
	}
}

// openFDs counts this process's descriptors; ok is false where /proc
// does not list them.
func openFDs() (n int, ok bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	return len(ents), err == nil
}

// TestKernelRelayLeavesNothingBehind runs 1 000 small sessions through
// a depot and compares goroutine and descriptor counts with what they
// were after a warm-up batch. The runtime's pool of splice pipes holds
// descriptors until a collection drops it, so both counts are taken
// after one.
func TestKernelRelayLeavesNothingBehind(t *testing.T) {
	reg := obs.NewRegistry()
	rig := newTCPRig(t, Config{Metrics: reg})
	batch := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if got := rig.send(t, 4<<10); got.err != nil || got.bytes != 4<<10 {
				t.Fatalf("session %d: sink read %d bytes, err %v", i, got.bytes, got.err)
			}
		}
	}
	settled := func() (goroutines, fds int) {
		runtime.GC()
		runtime.GC() // a pooled pipe survives one collection in the victim cache
		time.Sleep(10 * time.Millisecond)
		fds, _ = openFDs()
		return runtime.NumGoroutine(), fds
	}
	batch(50)
	srv := rig.depots[0]
	waitFor(t, func() bool { return srv.Stats().Forwarded == 50 })
	g0, fd0 := settled()

	batch(1000)
	waitFor(t, func() bool { return srv.Stats().Forwarded == 1050 })
	if n := kernelRelays(reg); n != 1050 {
		t.Fatalf("%d of 1050 sessions took the kernel relay", n)
	}
	var g1, fd1 int
	waitFor(t, func() bool {
		g1, fd1 = settled()
		return g1 <= g0 && fd1 <= fd0
	})
	if st := srv.Stats(); st.Errors != 0 {
		t.Fatalf("depot errors: %+v", st)
	}
	t.Logf("goroutines %d -> %d, descriptors %d -> %d", g0, g1, fd0, fd1)
}

// TestKernelRelaySessionProgress watches /sessions' source while a
// kernel-relayed transfer is held up by its sink: the entry must show
// bytes, more bytes once the sink has read more, and — on Linux — the
// payload parked in the depot's socket buffers as queued bytes.
func TestKernelRelaySessionProgress(t *testing.T) {
	table := obs.NewSessionTable()
	reg := obs.NewRegistry()
	rig := newTCPRig(t, Config{Sessions: table, Metrics: reg})
	step := make(chan int64)
	rig.drain = func(s *lsl.Session) (int64, error) {
		var total int64
		for n := range step {
			m, err := io.CopyN(io.Discard, s, n)
			total += m
			if err != nil {
				return total, err
			}
		}
		m, err := io.Copy(io.Discard, s)
		return total + m, err
	}
	const size = 96 << 20
	sess := rig.open(t)
	sent := make(chan error, 1)
	go func() {
		err := writeCycle(sess, size)
		sess.Close()
		sent <- err
	}()
	entry := func() (info obs.SessionInfo) {
		for _, e := range table.Snapshot() {
			if e.ID == sess.ID().String() {
				return e
			}
		}
		return obs.SessionInfo{}
	}

	step <- 1 << 20
	var before obs.SessionInfo
	waitFor(t, func() bool {
		before = entry()
		return before.Bytes > 0 && (runtime.GOOS != "linux" || before.QueuedBytes > 0)
	})
	if runtime.GOOS == "linux" {
		if g := reg.Gauge(MetricPipelineOccupancy).Value(); g <= 0 {
			t.Fatalf("%s = %d while %d bytes sit in the depot's sockets", MetricPipelineOccupancy, g, before.QueuedBytes)
		}
	}
	// Let the stalled chain settle, so "more" below is the sink's doing.
	time.Sleep(50 * time.Millisecond)
	before = entry()
	step <- 48 << 20
	waitFor(t, func() bool { return entry().Bytes > before.Bytes })
	if kernelRelays(reg) != 1 {
		t.Fatal("the watched session did not take the kernel relay")
	}

	close(step)
	if err := <-sent; err != nil {
		t.Fatalf("send: %v", err)
	}
	if got := <-rig.sunk; got.err != nil || got.bytes != size {
		t.Fatalf("sink read %d of %d bytes, err %v", got.bytes, size, got.err)
	}
	waitFor(t, func() bool { return reg.Gauge(MetricPipelineOccupancy).Value() == 0 })
}

// TestIdleTimeoutOnKernelRelay checks that Config.IdleTimeout means on
// the kernel relay what it means on the pump: a sender that stalls is
// aborted, one that keeps trickling is not.
func TestIdleTimeoutOnKernelRelay(t *testing.T) {
	const idle = 200 * time.Millisecond

	t.Run("stalled sender is aborted", func(t *testing.T) {
		reg := obs.NewRegistry()
		rig := newTCPRig(t, Config{IdleTimeout: idle, Metrics: reg})
		sess := rig.open(t)
		defer sess.Close()
		if err := writeCycle(sess, 100<<10); err != nil {
			t.Fatal(err)
		}
		stalled := time.Now()
		srv := rig.depots[0]
		waitFor(t, func() bool { return srv.Stats().Errors == 1 })
		took := time.Since(stalled)
		// A deadline that falls in a window which moved bytes re-arms
		// once, so the abort comes between one and two timeouts after
		// the last byte; the margin is scheduling under -race.
		if took < idle || took > 2*idle+300*time.Millisecond {
			t.Fatalf("aborted %s after the sender stalled, want within [%s, %s]", took, idle, 2*idle)
		}
		if got := <-rig.sunk; got.bytes != 100<<10 {
			t.Fatalf("sink read %d bytes before the abort, want %d", got.bytes, 100<<10)
		}
		if kernelRelays(reg) != 1 {
			t.Fatal("an idle timeout alone took the session off the kernel relay")
		}
	})

	t.Run("trickling sender is not", func(t *testing.T) {
		reg := obs.NewRegistry()
		rig := newTCPRig(t, Config{IdleTimeout: idle, Metrics: reg})
		sess := rig.open(t)
		const rounds = 10 // five timeouts' worth
		for i := 0; i < rounds; i++ {
			if _, err := sess.Write(relayBlock[i*(64<<10) : (i+1)*(64<<10)]); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
			time.Sleep(idle / 2)
		}
		sess.Close()
		if got := <-rig.sunk; got.err != nil || got.bytes != rounds*(64<<10) {
			t.Fatalf("sink read %d of %d bytes, err %v", got.bytes, rounds*(64<<10), got.err)
		}
		srv := rig.depots[0]
		waitFor(t, func() bool { return srv.Stats().Forwarded == 1 })
		if st := srv.Stats(); st.Errors != 0 {
			t.Fatalf("a sender that never paused for a whole timeout was aborted: %+v", st)
		}
		if kernelRelays(reg) != 1 {
			t.Fatal("an idle timeout alone took the session off the kernel relay")
		}
	})
}
