package lsl

import (
	"errors"
	"io"
	"net"
	"testing"

	"github.com/netlogistics/lsl/internal/emu"
	"github.com/netlogistics/lsl/internal/wire"
)

func TestOpenStoreHeader(t *testing.T) {
	dst := wire.MustEndpoint("10.0.0.2:7411")
	src := wire.MustEndpoint("10.0.0.1:7411")
	dial, sessions := testNet(t, dst.String())
	sess, err := Start(dial, Spec{Type: wire.TypeStore, Src: src, Dst: dst})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got := <-sessions
	if got.Header.Type != wire.TypeStore {
		t.Fatalf("type = %d, want TypeStore", got.Header.Type)
	}
}

// fetchServer answers one fetch request with the given behaviour.
func fetchServer(t *testing.T, addr string, respond func(conn net.Conn, req *wire.Header)) Dialer {
	t.Helper()
	n := emu.NewNetwork(0.001)
	ln, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			h, err := wire.ReadHeader(conn)
			if err != nil {
				conn.Close()
				continue
			}
			respond(conn, h)
		}
	}()
	return DialerFunc(func(a string) (net.Conn, error) { return n.Dial("client", a) })
}

func TestFetchSuccess(t *testing.T) {
	depotEP := wire.MustEndpoint("10.0.0.9:7411")
	self := wire.MustEndpoint("10.0.0.1:7411")
	stored := wire.SessionID{7, 7, 7}
	payload := []byte("stored payload")

	dial := fetchServer(t, depotEP.String(), func(conn net.Conn, req *wire.Header) {
		defer conn.Close()
		opt, ok := req.Option(wire.OptFetchID)
		if !ok {
			return
		}
		id, err := wire.ParseFetchID(opt)
		if err != nil || id != stored {
			Refuse(conn, req)
			return
		}
		resp := &wire.Header{
			Version: wire.Version1, Type: wire.TypeData,
			Session: id, Src: depotEP, Dst: req.Src,
		}
		wire.WriteHeader(conn, resp)
		conn.Write(payload)
	})

	sess, err := Fetch(dial, self, depotEP, stored)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.ID() != stored {
		t.Fatal("fetched session id mismatch")
	}
	got, err := io.ReadAll(sess)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %q", got)
	}
}

func TestFetchRefused(t *testing.T) {
	depotEP := wire.MustEndpoint("10.0.0.9:7411")
	dial := fetchServer(t, depotEP.String(), func(conn net.Conn, req *wire.Header) {
		Refuse(conn, req)
	})
	_, err := Fetch(dial, wire.MustEndpoint("10.0.0.1:1"), depotEP, wire.SessionID{1})
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
}

func TestFetchWrongResponse(t *testing.T) {
	depotEP := wire.MustEndpoint("10.0.0.9:7411")
	dial := fetchServer(t, depotEP.String(), func(conn net.Conn, req *wire.Header) {
		defer conn.Close()
		resp := &wire.Header{
			Version: wire.Version1, Type: wire.TypeData,
			Session: wire.SessionID{99}, // wrong id
			Src:     depotEP, Dst: req.Src,
		}
		wire.WriteHeader(conn, resp)
	})
	if _, err := Fetch(dial, wire.MustEndpoint("10.0.0.1:1"), depotEP, wire.SessionID{1}); err == nil {
		t.Fatal("mismatched fetch response accepted")
	}
}

func TestFetchTruncatedResponse(t *testing.T) {
	depotEP := wire.MustEndpoint("10.0.0.9:7411")
	dial := fetchServer(t, depotEP.String(), func(conn net.Conn, req *wire.Header) {
		conn.Close() // no response at all
	})
	if _, err := Fetch(dial, wire.MustEndpoint("10.0.0.1:1"), depotEP, wire.SessionID{1}); err == nil {
		t.Fatal("truncated fetch response accepted")
	}
}

func TestFetchDialError(t *testing.T) {
	dial := DialerFunc(func(string) (net.Conn, error) { return nil, errors.New("down") })
	if _, err := Fetch(dial, wire.MustEndpoint("10.0.0.1:1"), wire.MustEndpoint("10.0.0.9:1"), wire.SessionID{1}); err == nil {
		t.Fatal("dial failure not surfaced")
	}
}

func TestOpenMulticastDialError(t *testing.T) {
	dial := DialerFunc(func(string) (net.Conn, error) { return nil, errors.New("down") })
	src := wire.MustEndpoint("10.0.0.1:1")
	if _, err := Start(dial, Spec{Type: wire.TypeMulticast, Src: src, Dst: src, Entry: wire.MustEndpoint("10.0.0.9:1")}); err == nil {
		t.Fatal("dial failure not surfaced")
	}
}
