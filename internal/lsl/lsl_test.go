package lsl

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/emu"
	"github.com/netlogistics/lsl/internal/wire"
)

// testNet builds an emulated net with a sink listener, returning a
// dialer for the client host and a channel of accepted sessions.
func testNet(t *testing.T, sinkAddr string) (Dialer, chan *Session) {
	t.Helper()
	n := emu.NewNetwork(0.001)
	ln, err := n.Listen(sinkAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	sessions := make(chan *Session, 4)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := Accept(conn)
			if err != nil {
				continue
			}
			sessions <- s
		}
	}()
	dial := DialerFunc(func(addr string) (net.Conn, error) { return n.Dial("client", addr) })
	return dial, sessions
}

func TestOpenDirectSession(t *testing.T) {
	dst := wire.MustEndpoint("10.0.0.2:7411")
	src := wire.MustEndpoint("10.0.0.1:7411")
	dial, sessions := testNet(t, dst.String())

	sess, err := Open(dial, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("grid data")
	go func() {
		sess.Write(payload)
		sess.Close()
	}()

	got := <-sessions
	if got.Header.Src != src || got.Header.Dst != dst {
		t.Fatalf("header endpoints: %+v", got.Header)
	}
	if got.Header.Type != wire.TypeData {
		t.Fatalf("type = %d", got.Header.Type)
	}
	if got.ID() != sess.ID() {
		t.Fatal("session ids differ across the wire")
	}
	if _, ok := got.Header.Option(wire.OptSourceRoute); ok {
		t.Fatal("direct session should carry no source route")
	}
	data, err := io.ReadAll(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatalf("payload = %q", data)
	}
}

func TestOpenWithRoute(t *testing.T) {
	// The first hop receives the connection; the remaining route (one
	// depot + final dst) rides in the header.
	firstHop := wire.MustEndpoint("10.0.0.9:7411")
	depot2 := wire.MustEndpoint("10.0.0.8:7411")
	dst := wire.MustEndpoint("10.0.0.2:7411")
	src := wire.MustEndpoint("10.0.0.1:7411")
	dial, sessions := testNet(t, firstHop.String())

	sess, err := Open(dial, src, dst, []wire.Endpoint{firstHop, depot2})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	got := <-sessions
	opt, ok := got.Header.Option(wire.OptSourceRoute)
	if !ok {
		t.Fatal("source route missing")
	}
	hops, err := wire.ParseSourceRoute(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 2 || hops[0] != depot2 || hops[1] != dst {
		t.Fatalf("remaining route = %v", hops)
	}
	if got.Header.Dst != dst {
		t.Fatalf("dst = %v", got.Header.Dst)
	}
}

func TestOpenZeroDestination(t *testing.T) {
	dial, _ := testNet(t, "10.0.0.2:7411")
	if _, err := Open(dial, wire.MustEndpoint("10.0.0.1:1"), wire.Endpoint{}, nil); err == nil {
		t.Fatal("zero destination accepted")
	}
}

func TestOpenDialFailure(t *testing.T) {
	dial := DialerFunc(func(addr string) (net.Conn, error) {
		return nil, errors.New("refused")
	})
	_, err := Open(dial, wire.MustEndpoint("10.0.0.1:1"), wire.MustEndpoint("10.0.0.2:1"), nil)
	if err == nil {
		t.Fatal("dial failure not propagated")
	}
}

func TestOpenGenerate(t *testing.T) {
	dst := wire.MustEndpoint("10.0.0.2:7411")
	src := wire.MustEndpoint("10.0.0.1:7411")
	dial, sessions := testNet(t, dst.String())

	sess, err := Start(dial, Spec{Type: wire.TypeGenerate, Src: src, Dst: dst, Options: []wire.Option{wire.GenerateOption(12345)}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got := <-sessions
	if got.Header.Type != wire.TypeGenerate {
		t.Fatalf("type = %d", got.Header.Type)
	}
	opt, ok := got.Header.Option(wire.OptGenerate)
	if !ok {
		t.Fatal("generate option missing")
	}
	size, err := wire.ParseGenerate(opt)
	if err != nil || size != 12345 {
		t.Fatalf("size = %d, %v", size, err)
	}
}

func TestOpenMulticast(t *testing.T) {
	root := wire.MustEndpoint("10.0.0.3:7411")
	src := wire.MustEndpoint("10.0.0.1:7411")
	dial, sessions := testNet(t, root.String())

	tree := &wire.TreeNode{
		Addr: root,
		Children: []*wire.TreeNode{
			{Addr: wire.MustEndpoint("10.0.0.4:7411")},
			{Addr: wire.MustEndpoint("10.0.0.5:7411")},
		},
	}
	treeOpt, err := wire.MulticastTreeOption(tree)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Start(dial, Spec{Type: wire.TypeMulticast, Src: src, Dst: src, Entry: tree.Addr, Options: []wire.Option{treeOpt}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got := <-sessions
	if got.Header.Type != wire.TypeMulticast {
		t.Fatalf("type = %d", got.Header.Type)
	}
	opt, ok := got.Header.Option(wire.OptMulticastTree)
	if !ok {
		t.Fatal("tree option missing")
	}
	parsed, err := wire.ParseMulticastTree(opt)
	if err != nil || parsed.Size() != 3 {
		t.Fatalf("tree = %v, %v", parsed, err)
	}
}

func TestRefuse(t *testing.T) {
	n := emu.NewNetwork(0.001)
	ln, err := n.Listen("10.0.0.2:7411")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Server refuses every session.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		h, err := wire.ReadHeader(conn)
		if err != nil {
			return
		}
		Refuse(conn, h)
	}()

	dial := DialerFunc(func(addr string) (net.Conn, error) { return n.Dial("client", addr) })
	sess, err := Open(dial, wire.MustEndpoint("10.0.0.1:7411"), wire.MustEndpoint("10.0.0.2:7411"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// Reading the response surfaces the refusal header.
	h, err := wire.ReadHeader(sess)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != wire.TypeRefuse {
		t.Fatalf("response type = %d, want refuse", h.Type)
	}
	if h.Session != sess.ID() {
		t.Fatal("refusal should echo the session id")
	}
}

func TestAcceptRefusedType(t *testing.T) {
	// Accept() treats an incoming TypeRefuse header as ErrRefused.
	n := emu.NewNetwork(0.001)
	ln, err := n.Listen("10.0.0.2:7411")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	errCh := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errCh <- err
			return
		}
		_, err = Accept(conn)
		errCh <- err
	}()
	conn, err := n.Dial("client", "10.0.0.2:7411")
	if err != nil {
		t.Fatal(err)
	}
	h := &wire.Header{Version: wire.Version1, Type: wire.TypeRefuse,
		Src: wire.MustEndpoint("10.0.0.1:1"), Dst: wire.MustEndpoint("10.0.0.2:1")}
	if err := wire.WriteHeader(conn, h); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
}

func TestAcceptGarbage(t *testing.T) {
	n := emu.NewNetwork(0.001)
	ln, err := n.Listen("10.0.0.2:7411")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	errCh := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errCh <- err
			return
		}
		_, err = Accept(conn)
		errCh <- err
	}()
	conn, err := n.Dial("client", "10.0.0.2:7411")
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(bytes.Repeat([]byte{0xAB}, 100))
	conn.Close()
	if err := <-errCh; err == nil {
		t.Fatal("garbage header accepted")
	}
}

func TestOpenStripe(t *testing.T) {
	dst := wire.MustEndpoint("10.0.0.2:7411")
	src := wire.MustEndpoint("10.0.0.1:7411")
	dial, sessions := testNet(t, dst.String())

	id, err := wire.NewSessionID()
	if err != nil {
		t.Fatal(err)
	}
	// Two stripes of one object share the id; the second begins at a
	// nonzero absolute offset carried as a resume option.
	cases := []struct {
		index  int
		offset int64
	}{
		{index: 0, offset: 0},
		{index: 1, offset: 4096},
	}
	for _, tc := range cases {
		sess, err := Start(dial, Spec{ID: id, Src: src, Dst: dst, Offset: tc.offset, Options: []wire.Option{
			wire.StripeCountOption(2), wire.StripeIndexOption(uint16(tc.index)),
		}})
		if err != nil {
			t.Fatal(err)
		}
		sess.Close()
		got := <-sessions
		if got.ID() != id {
			t.Fatalf("stripe %d: id %s, want shared %s", tc.index, got.ID(), id)
		}
		if c := got.Header.StripeCount(); c != 2 {
			t.Fatalf("stripe %d: count = %d", tc.index, c)
		}
		if k := got.Header.StripeIndex(); k != tc.index {
			t.Fatalf("stripe index = %d, want %d", k, tc.index)
		}
		if off := got.Header.ResumeOffset(); off != tc.offset {
			t.Fatalf("stripe %d: offset = %d, want %d", tc.index, off, tc.offset)
		}
	}
}

// TestStartRejects covers every spec Start refuses before dialing: a
// header no depot or sink could act on never reaches the wire.
func TestStartRejects(t *testing.T) {
	dst := wire.MustEndpoint("10.0.0.2:7411")
	src := wire.MustEndpoint("10.0.0.1:7411")
	dialed := false
	dial := DialerFunc(func(string) (net.Conn, error) {
		dialed = true
		return nil, errors.New("rejected specs must not dial")
	})
	stripe := func(index, count uint16) []wire.Option {
		return []wire.Option{wire.StripeCountOption(count), wire.StripeIndexOption(index)}
	}
	cases := []struct {
		name string
		spec Spec
	}{
		{"zero-destination", Spec{Src: src}},
		{"negative-offset", Spec{Src: src, Dst: dst, Offset: -1}},
		{"zero-count", Spec{Src: src, Dst: dst, Options: stripe(0, 0)}},
		{"index-beyond-count", Spec{Src: src, Dst: dst, Options: stripe(2, 2)}},
		{"index-without-count", Spec{Src: src, Dst: dst, Options: []wire.Option{wire.StripeIndexOption(1)}}},
		{"path-index-beyond-count", Spec{Src: src, Dst: dst, Options: []wire.Option{wire.PathIndexOption(2, 2)}}},
		{"path-count-zero", Spec{Src: src, Dst: dst, Options: []wire.Option{wire.PathIndexOption(0, 0)}}},
		{"cache-serve-without-holder", Spec{Type: wire.TypeCacheServe, Src: src, Dst: dst}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Start(dial, tc.spec); err == nil || dialed {
				t.Fatalf("Start accepted %+v (dialed %v)", tc.spec, dialed)
			}
		})
	}
}

// A cache exchange with a member that accepts and never answers ends
// at its deadline, dial included, instead of holding the caller: the
// controller's inventory poll and the engine's holder probe both ride
// on it.
func TestCacheExchangeHonorsDeadline(t *testing.T) {
	dial, _ := testNet(t, "10.0.0.2:9000")
	self, silent := wire.MustEndpoint("10.0.0.1:1"), wire.MustEndpoint("10.0.0.2:9000")
	exchanges := map[string]func(time.Time) error{
		"probe": func(dl time.Time) error {
			_, err := CacheProbe(dial, self, silent, wire.ContentDigest{Size: 1}, dl)
			return err
		},
		"inventory": func(dl time.Time) error {
			_, err := CacheInventory(dial, self, silent, dl)
			return err
		},
	}
	for name, exchange := range exchanges {
		for _, budget := range []time.Duration{200 * time.Millisecond, -time.Second} {
			start := time.Now()
			err := exchange(start.Add(budget))
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("%s with %v left: err = %v, want a deadline error", name, budget, err)
			}
			if el := time.Since(start); el > max(budget, 0)+time.Second {
				t.Fatalf("%s with %v left returned after %v", name, budget, el)
			}
		}
	}
}
