package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"net"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/cache"
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/retry"
	"github.com/netlogistics/lsl/internal/wire"
)

// logLines collects the log output the sink writes its status lines to.
type logLines struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logLines) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// statuses returns the bracketed status of every line about session id.
func (l *logLines) statuses(id wire.SessionID) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, line := range strings.Split(l.buf.String(), "\n") {
		if i := strings.LastIndex(line, " ["); strings.Contains(line, "session "+id.String()) && i >= 0 {
			out = append(out, strings.TrimSuffix(line[i+2:], "]"))
		}
	}
	return out
}

// proxy forwards every connection it accepts to an upstream address:
// a sublink the test can watch, slow and damage. Each connection's
// header is read, its content digest flipped while digests is positive,
// and written on (a status query is closed unanswered instead while
// mute is set, as a peer that predates status queries does); the byte
// at stream position at of the first connection to reach it after
// being armed is flipped; what follows is paced at pace per byte; sent
// counts what went upstream.
type proxy struct {
	at, digests, sent atomic.Int64
	pace              atomic.Int64 // nanoseconds per byte forwarded
	mute              atomic.Bool
}

// flipProxy serves a proxy on ln toward addr until ln closes.
func flipProxy(t *testing.T, ln net.Listener, addr string) *proxy {
	p := new(proxy)
	p.at.Store(-1)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", addr)
			if err != nil {
				c.Close()
				continue
			}
			go func() { io.Copy(c, up); c.Close() }() //nolint:errcheck // torn either way
			go p.forward(c, up)
		}
	}()
	return p
}

func (p *proxy) forward(c, up net.Conn) {
	defer up.Close()
	h, err := wire.ReadHeader(c)
	if err != nil || h.Type == wire.TypeStatus && p.mute.Load() {
		c.Close()
		return
	}
	for i, o := range h.Options {
		if o.Kind == wire.OptContentDigest && p.digests.Add(-1) >= 0 {
			h.Options[i].Data = append([]byte(nil), o.Data...)
			h.Options[i].Data[len(o.Data)-1] ^= 1
		}
	}
	raw, err := h.MarshalBinary()
	if err != nil {
		return
	}
	buf := make([]byte, 32<<10)
	pos := int64(len(raw))
	if _, err := up.Write(raw); err != nil {
		return
	}
	p.sent.Add(pos)
	for {
		n, err := c.Read(buf)
		if at := p.at.Load(); at >= pos && at < pos+int64(n) && p.at.CompareAndSwap(at, -1) {
			buf[at-pos] ^= 0xff
		}
		pos += int64(n)
		p.sent.Add(int64(n))
		time.Sleep(time.Duration(p.pace.Load() * int64(n)))
		if _, werr := up.Write(buf[:n]); werr != nil || err != nil {
			return
		}
	}
}

// chain is a sink behind two real depots on loopback TCP. Both
// sublinks after the depots' ends run through proxies: into the first
// depot (counting what the sender writes) and into the sink (corrupting
// after the last depot re-stamped the frames).
type chain struct {
	logs          *logLines
	sinkEP        wire.Endpoint
	route         []wire.Endpoint // the first depot's proxy, then the second depot
	first, toSink *proxy
	faults        *depot.FaultInjector // the second depot's
}

func newChain(t *testing.T) *chain {
	c := &chain{logs: new(logLines), faults: depot.NewFaultInjector()}
	log.SetOutput(c.logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	listen := func() (net.Listener, wire.Endpoint) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return ln, wire.MustEndpoint(ln.Addr().String())
	}
	serve := func(srv *depot.Server, err error) wire.Endpoint {
		if err != nil {
			t.Fatal(err)
		}
		ln, ep := listen()
		t.Cleanup(srv.Close)
		go srv.Serve(ln) //nolint:errcheck // ends with the listener
		return ep
	}
	// The sink answers to the proxy's endpoint: the last depot dials
	// the proxy, which relays to the sink's own listener.
	proxyLn, sinkEP := listen()
	c.sinkEP = sinkEP
	inner := serve(sinkServer(sinkEP, nil))
	c.toSink = flipProxy(t, proxyLn, inner.String())
	d0 := serve(depot.New(depot.Config{Self: wire.MustEndpoint("127.0.0.1:1"), Dial: tcpDial}))
	d1 := serve(depot.New(depot.Config{Self: wire.MustEndpoint("127.0.0.1:2"), Dial: tcpDial, Faults: c.faults}))
	firstLn, firstEP := listen()
	c.first = flipProxy(t, firstLn, d0.String())
	c.route = []wire.Endpoint{firstEP, d1}
	return c
}

// send runs lsl-xfer's sender to the chain's sink with args, every
// other flag at its default.
func (c *chain) send(t *testing.T, args ...string) error {
	t.Helper()
	_, err := c.output(t, context.Background(), args...)
	return err
}

// output is send under ctx, returning what lsl-xfer printed.
func (c *chain) output(t *testing.T, ctx context.Context, args ...string) (string, error) {
	t.Helper()
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			f.Value.Set(f.DefValue) //nolint:errcheck // defaults parse
		}
	})
	args = append([]string{"-to", c.sinkEP.String(), "-retry-backoff", "10ms"}, args...)
	if err := flag.CommandLine.Parse(args); err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = run(ctx)
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	return string(out), err
}

// sessionID returns the session id lsl-xfer printed.
func sessionID(t *testing.T, out string) string {
	t.Helper()
	m := regexp.MustCompile(`session ([0-9a-f]{32})`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no session id printed:\n%s", out)
	}
	return m[1]
}

// plainDepot serves a depot with no sink behind a proxy the test can
// pace, and returns the depot's endpoint (the proxy's) and the proxy.
func plainDepot(t *testing.T) (wire.Endpoint, *proxy) {
	t.Helper()
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		lns[i] = ln
	}
	ep := wire.MustEndpoint(lns[0].Addr().String())
	srv, err := depot.New(depot.Config{Self: ep, Dial: tcpDial})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	go srv.Serve(lns[1]) //nolint:errcheck // ends with the listener
	return ep, flipProxy(t, lns[0], lns[1].Addr().String())
}

// String returns everything logged so far.
func (l *logLines) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// count returns how many status lines the sink has logged with status,
// waiting up to a few seconds for at least atLeast: the sink files a
// report, which a status query may return at once, before it logs.
func (l *logLines) count(status string, atLeast int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := strings.Count(l.String(), "["+status)
		if n >= atLeast || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSendOverTCP runs lsl-xfer's sender through two real depots to its
// sink and holds each send mode to the sink's verdict, which reaches it
// over status queries: a digest flipped after the last depot fails the
// send with wire.ErrDigest (main then exits non-zero), a retry re-sends
// the object until the sink verifies it, and a chain torn at 75 % is
// resumed at the acked offset.
func TestSendOverTCP(t *testing.T) {
	c := newChain(t)
	const size = 4 << 20
	via := c.route[0].String() + "," + c.route[1].String()
	sz := strconv.Itoa(size)

	t.Run("plain digest mismatch fails", func(t *testing.T) {
		c.toSink.digests.Store(1)
		if err := c.send(t, "-via", via, "-size", sz, "-verify-integrity"); !errors.Is(err, wire.ErrDigest) {
			t.Fatalf("send err = %v, want wire.ErrDigest", err)
		}
	})
	t.Run("retry re-sends a mismatch until verified", func(t *testing.T) {
		verified, mismatched := c.logs.count("OK, sha256 verified", 0), c.logs.count(wire.ErrDigest.Error(), 0)
		c.toSink.digests.Store(1)
		if err := c.send(t, "-via", via, "-size", sz, "-verify-integrity", "-retries", "1"); err != nil {
			t.Fatal(err)
		}
		v := c.logs.count("OK, sha256 verified", verified+1) - verified
		if m := c.logs.count(wire.ErrDigest.Error(), mismatched+1) - mismatched; v != 1 || m != 1 {
			t.Fatalf("sink logged %d verified and %d mismatched sessions, want 1 and 1:\n%s", v, m, c.logs)
		}
	})
	t.Run("retry resumes a torn chain at the acked offset", func(t *testing.T) {
		sent := c.first.sent.Load()
		c.faults.DropAfter(size * 3 / 4)
		defer c.faults.Clear()
		if err := c.send(t, "-via", via, "-size", sz, "-verify-integrity", "-retries", "2"); err != nil {
			t.Fatal(err)
		}
		if c.faults.Injected() != 1 {
			t.Fatalf("injected %d faults, want the one drop", c.faults.Injected())
		}
		n := c.first.sent.Load() - sent
		if n >= size*3/2 {
			t.Fatalf("sender wrote %d bytes for a %d-byte object: the retry did not resume", n, size)
		}
		t.Logf("sender wrote %d bytes for a %d-byte object", n, size)
	})
	// A multipath transfer can leave a stolen range's duplicate in
	// flight after it returns, so it runs after the tests that arm
	// one-shot faults.
	t.Run("multipath digest mismatch fails", func(t *testing.T) {
		c.toSink.digests.Store(1 << 20)
		defer c.toSink.digests.Store(0)
		err := c.send(t, "-via", via+";"+c.route[1].String(), "-multipath", "2", "-size", sz, "-verify-integrity")
		if !errors.Is(err, wire.ErrDigest) {
			t.Fatalf("send err = %v, want wire.ErrDigest", err)
		}
	})
	t.Run("slow drain outlasts the sink's status wait", func(t *testing.T) {
		c.toSink.pace.Store(int64(2 * time.Second / size)) // the depots buffer it all
		defer c.toSink.pace.Store(0)
		start := time.Now()
		if err := c.send(t, "-via", via, "-size", sz, "-verify-integrity"); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < 2*time.Second {
			t.Fatalf("the send took %v: the last hop was not slowed", d)
		}
		if strings.Contains(c.logs.String(), "completion is send-side") {
			t.Fatalf("the sender stopped asking the sink:\n%s", c.logs)
		}
	})
	// A plain depot refuses status queries; a sink that predates them
	// (here, one that closes them unanswered) does not answer them.
	// Either way completion falls back to the send side, logged once.
	old, err := depot.New(depot.Config{Self: wire.MustEndpoint("127.0.0.1:3"), Dial: tcpDial, Local: func(s *lsl.Session) error {
		if s.Header.Type == wire.TypeStatus {
			return s.Close()
		}
		return depot.NewSink(nil, nil).Handle(s)
	}})
	if err != nil {
		t.Fatal(err)
	}
	oldLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer oldLn.Close()
	defer old.Close()
	go old.Serve(oldLn) //nolint:errcheck // ends with the listener
	for name, peer := range map[string]string{"plain depot": c.route[1].String(), "sink without status queries": oldLn.Addr().String()} {
		t.Run(name+" falls back to send-side completion", func(t *testing.T) {
			if err := c.send(t, "-to", peer, "-size", sz, "-verify-integrity"); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(c.logs.String(), peer+": lsl: session refused by depot") {
				t.Fatalf("no fallback logged for %s:\n%s", peer, c.logs)
			}
		})
	}
	// With no sink to report a generate, the generating depot's close of
	// the session ends it: the send lasts as long as the generation.
	t.Run("-generate toward a plain depot lasts the generation", func(t *testing.T) {
		plain, front := plainDepot(t)
		front.pace.Store(int64(time.Second / (16 << 20)))
		start := time.Now()
		if err := c.send(t, "-to", plain.String(), "-via", c.route[1].String(), "-generate", "-size", "32M"); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < time.Second {
			t.Fatalf("a 2 s generation ended at the sender after %v", d)
		}
	})
	for _, mode := range [][]string{{"-stripes", "3"}, {"-multipath", "2", "-via", via + ";"}, {"-table-driven", "-via", c.route[1].String()}, {"-cached", "-via", via}, {"-generate"}} {
		t.Run("clean "+mode[0], func(t *testing.T) {
			args := append([]string{"-size", sz, "-verify-integrity", "-via", via}, mode...)
			if err := c.send(t, args...); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSinkOverTCP runs lsl-xfer's -sink behind two real depots on
// loopback TCP, sends to it by hand, and reads each session's verdict
// from its status line.
func TestSinkOverTCP(t *testing.T) {
	c := newChain(t)
	logs, sinkEP, route, flipAt := c.logs, c.sinkEP, c.route, &c.toSink.at

	const size = 256 << 10
	tid := wire.TraceID{0x7a, 1}
	send := func(id wire.SessionID, from, to int64, want wire.ContentDigest) {
		sess, err := lsl.Start(tcpDial, lsl.Spec{ID: id, Dst: sinkEP, Route: route, Offset: from, Options: []wire.Option{
			wire.TraceIDOption(tid), wire.ChunkChecksumOption(), wire.ContentDigestOption(want)}})
		if err != nil {
			t.Fatal(err)
		}
		depot.WritePattern(wire.NewFrameWriter(sess), id, from, to) //nolint:errcheck // a torn send shows in the sink's verdict
		sess.Close()
	}
	awaitStatuses := func(id wire.SessionID, n int) []string {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if got := logs.statuses(id); len(got) >= n {
				return got
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("session %s: %d status lines, want %d:\n%s", id, len(logs.statuses(id)), n, logs)
		return nil
	}

	cases := []struct {
		name string
		// corrupt flips one byte of the sink's sublink 100 KiB in; bad
		// sends a header digest no delivery can match; split sends the
		// object as a prefix and a continuation at the acked offset.
		corrupt, bad, split bool
		want                []string // the status line of every session
	}{
		{name: "clean", want: []string{"OK, sha256 verified"}},
		{name: "header digest mismatch", bad: true, want: []string{wire.ErrDigest.Error()}},
		{name: "frame corrupted before the last hop", corrupt: true, want: []string{wire.ErrChecksum.Error()}},
		{name: "continuation stitched", split: true, want: []string{"OK", "OK, sha256 verified"}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			id := wire.SessionID{0x5e, byte(i + 1)}
			want := depot.PatternDigest(id, size)
			if tc.bad {
				want.Sum[0] ^= 1
			}
			if tc.corrupt {
				flipAt.Store(100 << 10)
			}
			if tc.split {
				send(id, 0, size/2, want)
				awaitStatuses(id, 1)
				send(id, size/2, size, want)
			} else {
				send(id, 0, size, want)
			}
			got := awaitStatuses(id, len(tc.want))
			for k, w := range tc.want {
				if got[k] != w && !strings.HasPrefix(got[k], w+":") {
					t.Fatalf("session %d of %s: status %q, want %q", k, id, got[k], w)
				}
			}
		})
	}
}

// TestStoreThenFetchOverTCP: a -store prints its session id only once
// the storing depot holds the whole object, so a -fetch issued at once
// finds it even when the last sublink into that depot is slow.
func TestStoreThenFetchOverTCP(t *testing.T) {
	c := newChain(t)
	c.toSink.pace.Store(int64(time.Second / (1 << 20)))
	defer c.toSink.pace.Store(0)
	via := c.route[0].String() + "," + c.route[1].String()
	out, err := c.output(t, context.Background(), "-store", "-via", via, "-size", "1M")
	if err != nil {
		t.Fatal(err)
	}
	if out, err = c.output(t, context.Background(), "-fetch", sessionID(t, out)); err != nil || !strings.Contains(out, "[OK]") {
		t.Fatalf("immediate fetch of a confirmed store: %v\n%s", err, out)
	}
}

// TestStoreCutShortIsNotHeld: a -store interrupted mid-payload closes
// its session cleanly, and the storing depot, which reads a payload
// shorter than the one declared, refuses it: a later -fetch of that id
// fails instead of returning the prefix as whole.
func TestStoreCutShortIsNotHeld(t *testing.T) {
	c := newChain(t)
	c.toSink.pace.Store(int64(time.Second / (32 << 20)))
	defer c.toSink.pace.Store(0)
	traceFile := t.TempDir() + "/trace.jsonl"
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := c.output(t, ctx, "-store", "-size", "64M", "-trace-out", traceFile); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("interrupted store = %v, want the interrupt's end", err)
	}
	events, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`"session":"([0-9a-f]{32})"`).FindSubmatch(events)
	if m == nil {
		t.Fatalf("no session in the trace:\n%s", events)
	}
	id := string(m[1])
	sid, err := parseID(id)
	if err != nil {
		t.Fatal(err)
	}
	// The depot answers for the store once it has read all that came.
	ask := depot.RemoteAwait(tcpDial, wire.Endpoint{}, c.sinkEP, time.Minute, t.Logf)
	if rep, err := ask(context.Background(), depot.Query{ID: sid, Offset: depot.StoredOffset}); err != nil || rep.Err == nil {
		t.Fatalf("the depot's answer for a store cut short = %+v, %v; want it refused", rep, err)
	}
	if _, err := c.output(t, context.Background(), "-fetch", id); !errors.Is(err, lsl.ErrRefused) {
		t.Fatalf("fetch of a store cut short = %v, want refused", err)
	}
}

// TestOnlyCachedSendsCache: a caching depot on the route admits
// nothing from -verify-integrity sends, plain, multipath or generated,
// whose digest keys no repeat; a -cached send naming it as the last
// -via depot fills it.
func TestOnlyCachedSendsCache(t *testing.T) {
	c := newChain(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ep := wire.MustEndpoint(ln.Addr().String())
	held, err := cache.New(cache.Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := depot.New(depot.Config{Self: ep, Dial: tcpDial, Cache: held})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(ln) //nolint:errcheck // ends with the listener

	via := c.route[1].String() + "," + ep.String()
	for _, mode := range [][]string{nil, {"-multipath", "2", "-via", via + ";"}, {"-generate"}} {
		args := append([]string{"-size", "256K", "-verify-integrity", "-via", via}, mode...)
		if err := c.send(t, args...); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if keys := held.Keys(); len(keys) != 0 {
			t.Fatalf("%v: the depot cached %d objects, want none", args, len(keys))
		}
	}
	if err := c.send(t, "-size", "256K", "-via", via, "-cached"); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); len(held.Keys()) != 1; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("a -cached send left %d objects in its named depot's cache, want 1", len(held.Keys()))
		}
	}
}

// TestStoreRefusedNamesTheDepot: a -store larger than the storing
// depot's store budget (lsl-depot -store-bytes) fails fatally, with an
// error naming that depot and the verdict's class, not a sink.
func TestStoreRefusedNamesTheDepot(t *testing.T) {
	c := newChain(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ep := wire.MustEndpoint(ln.Addr().String())
	srv, err := depot.New(depot.Config{Self: ep, Dial: tcpDial, StoreBytes: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(ln) //nolint:errcheck // ends with the listener

	err = c.send(t, "-to", ep.String(), "-store", "-size", "1M")
	if want := "core: store at " + ep.String() + ": refused (fatal)"; err == nil || err.Error() != want || !retry.IsFatal(err) {
		t.Fatalf("store over the depot's budget: err = %v, want fatal %q", err, want)
	}
}

// TestStoreAndFetchBounds: a store the depot refuses fails the sender
// with a fatal error; a store to a peer that leaves the depot's status
// query unanswered, or answers it as a sink that predates store status,
// completes send-side, logged; and a store or fetch against a depot
// that stalls ends on an interrupt.
func TestStoreAndFetchBounds(t *testing.T) {
	c := newChain(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ep, faults := wire.MustEndpoint(ln.Addr().String()), depot.NewFaultInjector()
	srv, err := depot.New(depot.Config{Self: ep, Dial: tcpDial, StoreBytes: 1 << 20, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(ln) //nolint:errcheck // ends with the listener

	if err := c.send(t, "-to", ep.String(), "-store", "-size", "2M"); err == nil || !retry.IsFatal(err) {
		t.Fatalf("store over the depot's budget: err = %v, want a fatal verdict", err)
	}
	out, err := c.output(t, context.Background(), "-to", ep.String(), "-store", "-size", "256K")
	if err != nil {
		t.Fatal(err)
	}
	id := sessionID(t, out)

	c.toSink.mute.Store(true)
	defer c.toSink.mute.Store(false)
	if err := c.send(t, "-store", "-size", "256K"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.logs.String(), c.sinkEP.String()+": lsl: session refused by depot") {
		t.Fatalf("no send-side completion logged:\n%s", c.logs)
	}

	// A sink built before stores answered for themselves answers a query
	// at depot.StoredOffset pending, echoing that offset, on every ask:
	// the store completes send-side, logged.
	echo, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	go func() {
		for {
			conn, err := echo.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if h, err := wire.ReadHeader(conn); err == nil && h.Type == wire.TypeStatus {
					depot.NewSink(nil, nil).Handle(&lsl.Session{Conn: conn, Header: h}) //nolint:errcheck // the asker reads the answer
				} else {
					io.Copy(io.Discard, conn) //nolint:errcheck // a store's payload
				}
			}()
		}
	}()
	if err := c.send(t, "-to", echo.Addr().String(), "-store", "-size", "256K"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.logs.String(), echo.Addr().String()+": lsl: session refused by depot: no store status") {
		t.Fatalf("no send-side completion logged for an echoing sink:\n%s", c.logs)
	}

	// An interrupt cancels the context main hands run.
	for _, args := range [][]string{{"-fetch", id}, {"-store", "-size", "256K"}} {
		faults.StallAfter(0, 5*time.Second)
		ctx, cancel := context.WithCancel(context.Background())
		interrupt := time.AfterFunc(200*time.Millisecond, cancel)
		start := time.Now()
		_, err := c.output(t, ctx, append([]string{"-to", ep.String()}, args...)...)
		interrupt.Stop()
		cancel()
		if !errors.Is(err, context.Canceled) || time.Since(start) > 2*time.Second {
			t.Fatalf("%s against a stalled depot = %v after %v, want the interrupt's end at once", args[0], err, time.Since(start))
		}
	}
}
