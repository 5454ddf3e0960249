package depot

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/emu"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/wire"
)

// harness stands up depots on an emulated network.
type harness struct {
	t   *testing.T
	net *emu.Network
	mu  sync.Mutex
	// delivered collects locally delivered payloads keyed by session.
	delivered map[wire.SessionID][]byte
	done      chan wire.SessionID
	servers   map[wire.Endpoint]*Server
}

func newHarness(t *testing.T) *harness {
	return &harness{
		t:         t,
		net:       emu.NewNetwork(0.001),
		delivered: make(map[wire.SessionID][]byte),
		done:      make(chan wire.SessionID, 16),
		servers:   make(map[wire.Endpoint]*Server),
	}
}

func (h *harness) dialerFrom(host string) lsl.Dialer {
	return lsl.DialerFunc(func(addr string) (net.Conn, error) {
		return h.net.Dial(host, addr)
	})
}

// addDepot starts a depot at the endpoint. routes may be nil.
func (h *harness) addDepot(ep wire.Endpoint, cfg Config) *Server {
	h.t.Helper()
	cfg.Self = ep
	if cfg.Dial == nil {
		host := ep.String()
		host = host[:len(host)-len(":7411")]
		cfg.Dial = h.dialerFrom(host)
	}
	if cfg.Local == nil {
		cfg.Local = func(s *lsl.Session) error {
			data, err := io.ReadAll(s)
			h.mu.Lock()
			h.delivered[s.ID()] = data
			h.mu.Unlock()
			h.done <- s.ID()
			return err
		}
	}
	srv, err := New(cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	ln, err := h.net.Listen(ep.String())
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { srv.Close(); ln.Close() })
	go srv.Serve(ln)
	h.servers[ep] = srv
	return srv
}

func (h *harness) waitDelivery(id wire.SessionID) []byte {
	h.t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case got := <-h.done:
			if got == id {
				h.mu.Lock()
				defer h.mu.Unlock()
				return h.delivered[id]
			}
		case <-deadline:
			h.t.Fatal("delivery timed out")
		}
	}
}

var (
	epA = wire.MustEndpoint("10.0.0.1:7411")
	epB = wire.MustEndpoint("10.0.0.2:7411")
	epC = wire.MustEndpoint("10.0.0.3:7411")
	epD = wire.MustEndpoint("10.0.0.4:7411")
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Self: epA}); err == nil {
		t.Fatal("missing dialer accepted")
	}
	if _, err := New(Config{Dial: lsl.DialerFunc(nil)}); err == nil {
		t.Fatal("missing self accepted")
	}
}

func TestLocalDelivery(t *testing.T) {
	h := newHarness(t)
	h.addDepot(epB, Config{})
	sess, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epB, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("deliver me")
	sess.Write(payload)
	sess.Close()
	if got := h.waitDelivery(sess.ID()); !bytes.Equal(got, payload) {
		t.Fatalf("delivered %q", got)
	}
	// The delivery is counted when the local handler has returned to
	// the depot, a moment after the handler reported it here.
	waitFor(t, func() bool { return h.servers[epB].Stats().Delivered == 1 })
	st := h.servers[epB].Stats()
	if st.Accepted != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSourceRouteForwarding(t *testing.T) {
	h := newHarness(t)
	h.addDepot(epB, Config{}) // relay
	h.addDepot(epC, Config{}) // sink
	sess, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epC, []wire.Endpoint{epB})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("relay through B! "), 4096)
	go func() {
		sess.Write(payload)
		sess.Close()
	}()
	if got := h.waitDelivery(sess.ID()); !bytes.Equal(got, payload) {
		t.Fatalf("delivered %d bytes, want %d", len(got), len(payload))
	}
	bSt := h.servers[epB].Stats()
	if bSt.Forwarded != 1 || bSt.BytesForwarded != int64(len(payload)) {
		t.Fatalf("relay stats = %+v", bSt)
	}
	waitFor(t, func() bool { return h.servers[epC].Stats().Delivered == 1 })
}

func TestTwoDepotChain(t *testing.T) {
	h := newHarness(t)
	h.addDepot(epB, Config{})
	h.addDepot(epC, Config{})
	h.addDepot(epD, Config{})
	sess, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epD, []wire.Endpoint{epB, epC})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 200<<10)
	go func() {
		sess.Write(payload)
		sess.Close()
	}()
	if got := h.waitDelivery(sess.ID()); !bytes.Equal(got, payload) {
		t.Fatalf("delivered %d bytes", len(got))
	}
	for _, ep := range []wire.Endpoint{epB, epC} {
		if st := h.servers[ep].Stats(); st.Forwarded != 1 {
			t.Fatalf("depot %v stats = %+v", ep, st)
		}
	}
}

func TestRouteTableForwarding(t *testing.T) {
	h := newHarness(t)
	// B routes sessions for C onward; no source route used.
	h.addDepot(epB, Config{
		Routes: func(dst wire.Endpoint) (wire.Endpoint, bool) {
			if dst == epC {
				return epC, true
			}
			return wire.Endpoint{}, false
		},
	})
	h.addDepot(epC, Config{})
	// The initiator "routes" via B by dialing it directly with dst=C
	// and no source route — hop-by-hop forwarding.
	conn, err := h.net.Dial("10.0.0.1", epB.String())
	if err != nil {
		t.Fatal(err)
	}
	id, _ := wire.NewSessionID()
	hd := &wire.Header{Version: wire.Version1, Type: wire.TypeData, Session: id, Src: epA, Dst: epC}
	if err := wire.WriteHeader(conn, hd); err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("table routed"))
	conn.Close()
	if got := h.waitDelivery(id); string(got) != "table routed" {
		t.Fatalf("delivered %q", got)
	}
}

func TestUnroutedFallsBackToDirect(t *testing.T) {
	h := newHarness(t)
	h.addDepot(epB, Config{}) // no route table
	h.addDepot(epC, Config{})
	// Session addressed to C arrives at B; with no routes and no
	// source route, B forwards directly to the destination.
	conn, err := h.net.Dial("10.0.0.1", epB.String())
	if err != nil {
		t.Fatal(err)
	}
	id, _ := wire.NewSessionID()
	hd := &wire.Header{Version: wire.Version1, Type: wire.TypeData, Session: id, Src: epA, Dst: epC}
	wire.WriteHeader(conn, hd)
	conn.Write([]byte("direct fallback"))
	conn.Close()
	if got := h.waitDelivery(id); string(got) != "direct fallback" {
		t.Fatalf("delivered %q", got)
	}
}

func TestGenerateSession(t *testing.T) {
	h := newHarness(t)
	h.addDepot(epB, Config{})
	h.addDepot(epC, Config{})
	const size = 100 << 10
	sess, err := lsl.Start(h.dialerFrom("10.0.0.1"), lsl.Spec{Type: wire.TypeGenerate, Src: epA, Dst: epC, Route: []wire.Endpoint{epB}, Options: []wire.Option{wire.GenerateOption(size)}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got := h.waitDelivery(sess.ID())
	if len(got) != size {
		t.Fatalf("generated %d bytes, want %d", len(got), size)
	}
	if err := VerifyPattern(got, sess.ID(), 0); err != nil {
		t.Fatal(err)
	}
	if st := h.servers[epB].Stats(); st.Generated != 1 {
		t.Fatalf("generator stats = %+v", st)
	}
}

func TestGenerateToSelf(t *testing.T) {
	h := newHarness(t)
	h.addDepot(epB, Config{})
	sess, err := lsl.Start(h.dialerFrom("10.0.0.1"), lsl.Spec{Type: wire.TypeGenerate, Src: epA, Dst: epB, Options: []wire.Option{wire.GenerateOption(5000)}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got := h.waitDelivery(sess.ID())
	if len(got) != 5000 {
		t.Fatalf("generated %d bytes", len(got))
	}
	if err := VerifyPattern(got, sess.ID(), 0); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateMissingOption(t *testing.T) {
	h := newHarness(t)
	srv := h.addDepot(epB, Config{})
	conn, err := h.net.Dial("10.0.0.1", epB.String())
	if err != nil {
		t.Fatal(err)
	}
	id, _ := wire.NewSessionID()
	hd := &wire.Header{Version: wire.Version1, Type: wire.TypeGenerate, Session: id, Src: epA, Dst: epB}
	wire.WriteHeader(conn, hd)
	conn.Close()
	waitFor(t, func() bool { return srv.Stats().Errors == 1 })
}

func TestRefusalUnderLoad(t *testing.T) {
	h := newHarness(t)
	block := make(chan struct{})
	h.addDepot(epB, Config{
		MaxSessions: 1,
		Local: func(s *lsl.Session) error {
			<-block // hold the session open
			io.Copy(io.Discard, s)
			return nil
		},
	})
	defer close(block)

	// First session occupies the only slot.
	s1, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epB, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	waitFor(t, func() bool { return h.servers[epB].Stats().Accepted == 1 })

	// Second session must be refused.
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
		t.Fatalf("second session response = %d, want refuse", hd.Type)
	}
	if st := h.servers[epB].Stats(); st.Refused != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnknownSessionType(t *testing.T) {
	h := newHarness(t)
	srv := h.addDepot(epB, Config{})
	conn, err := h.net.Dial("10.0.0.1", epB.String())
	if err != nil {
		t.Fatal(err)
	}
	id, _ := wire.NewSessionID()
	hd := &wire.Header{Version: wire.Version1, Type: 999, Session: id, Src: epA, Dst: epB}
	wire.WriteHeader(conn, hd)
	conn.Close()
	waitFor(t, func() bool { return srv.Stats().Errors == 1 })
}

func TestBadHeaderCounted(t *testing.T) {
	h := newHarness(t)
	srv := h.addDepot(epB, Config{})
	conn, err := h.net.Dial("10.0.0.1", epB.String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(bytes.Repeat([]byte{0xFF}, 64))
	conn.Close()
	waitFor(t, func() bool { return srv.Stats().Errors == 1 })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func TestPattern(t *testing.T) {
	id := wire.SessionID{9, 8, 7}
	buf := make([]byte, 1000)
	FillPattern(buf, id, 0)
	if err := VerifyPattern(buf, id, 0); err != nil {
		t.Fatal(err)
	}
	// Offsets compose: the second half verified at its own offset.
	if err := VerifyPattern(buf[500:], id, 500); err != nil {
		t.Fatal(err)
	}
	buf[17] ^= 0xFF
	if err := VerifyPattern(buf, id, 0); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestPatternDiffersAcrossSessions(t *testing.T) {
	a := make([]byte, 64)
	b := make([]byte, 64)
	FillPattern(a, wire.SessionID{1}, 0)
	FillPattern(b, wire.SessionID{2}, 0)
	if bytes.Equal(a, b) {
		t.Fatal("patterns identical across sessions")
	}
}

func TestIdleTimeoutAbortsStalledSession(t *testing.T) {
	h := newHarness(t)
	srv := h.addDepot(epB, Config{IdleTimeout: 50 * time.Millisecond})
	sess, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epB, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// Write a little, then stall without closing.
	sess.Write([]byte("partial"))
	waitFor(t, func() bool { return srv.Stats().Errors >= 1 })
}

func TestShutdownDrainsSessions(t *testing.T) {
	h := newHarness(t)
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	srv := h.addDepot(epB, Config{
		Local: func(s *lsl.Session) error {
			started <- struct{}{}
			<-release
			io.Copy(io.Discard, s)
			return nil
		},
	})
	sess, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epB, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess.Write([]byte("x"))
	<-started

	// Shutdown with a short timeout fails while the session hangs.
	if srv.Shutdown(20 * time.Millisecond) {
		t.Fatal("shutdown reported success with a live session")
	}
	close(release)
	sess.Close()
	if !srv.Shutdown(5 * time.Second) {
		t.Fatal("shutdown did not complete after session drained")
	}
}
