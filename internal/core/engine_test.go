package core

import (
	"context"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/wire"
)

// pacedConn delays every write: a slow path that never stalls.
type pacedConn struct{ net.Conn }

func (c pacedConn) Write(p []byte) (int, error) {
	time.Sleep(10 * time.Millisecond)
	return c.Conn.Write(p)
}

// TestEngineStall: a send over a slow path that keeps making progress
// outlasts the attempt timeout. Without Stall the attempt timeout cuts
// it off mid-stream; with Stall it completes, verified by the sink.
func TestEngineStall(t *testing.T) {
	self := wire.MustEndpoint("10.9.0.2:7411")
	sink := depot.NewSink(nil, nil)
	srv, err := depot.New(depot.Config{Self: self, Local: sink.Handle,
		Dial: lsl.DialerFunc(func(string) (net.Conn, error) { return nil, errors.New("no onward hops") })})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	e := &Engine{Src: wire.MustEndpoint("10.9.0.1:7411"), Await: sink.Await, Dial: lsl.DialerFunc(func(string) (net.Conn, error) {
		c, s := net.Pipe()
		go srv.Handle(s)
		return pacedConn{c}, nil
	})}
	const size, timeout = 512 << 10, 50 * time.Millisecond // 16 writes, 160 ms
	for _, stall := range []time.Duration{0, time.Second} {
		e.Stall = stall
		id, _ := wire.NewSessionID()
		o := Object{ID: id, Dst: self, Size: size, Opts: []wire.Option{wire.ContentDigestOption(depot.PatternDigest(id, size))}}
		start := time.Now()
		err := e.Once(context.Background(), o, Route{}, timeout)
		switch {
		case stall == 0 && !errors.Is(err, os.ErrDeadlineExceeded):
			t.Fatalf("no stall bound: err = %v, want the attempt timeout", err)
		case stall > 0 && err != nil:
			t.Fatalf("stall bound %v: err = %v after %v", stall, err, time.Since(start))
		case stall > 0 && time.Since(start) < timeout:
			t.Fatalf("the send took %v, not longer than the attempt timeout %v", time.Since(start), timeout)
		}
	}
}

// TestEngineStoreAndFetch: a store on the engine is confirmed by the
// storing depot, which runs no sink, and the fetch that reads it back
// is bounded by Stall and by its context when the depot stalls.
func TestEngineStoreAndFetch(t *testing.T) {
	self := wire.MustEndpoint("10.9.0.2:7411")
	faults := depot.NewFaultInjector()
	srv, err := depot.New(depot.Config{Self: self, Faults: faults,
		Dial: lsl.DialerFunc(func(string) (net.Conn, error) { return nil, errors.New("no onward hops") })})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := lsl.DialerFunc(func(string) (net.Conn, error) {
		c, s := net.Pipe()
		go srv.Handle(s)
		return c, nil
	})
	src := wire.MustEndpoint("10.9.0.1:7411")
	e := &Engine{Dial: dial, Src: src, Await: depot.RemoteAwait(dial, src, self, time.Second, t.Logf)}
	const size = 256 << 10
	id, _ := wire.NewSessionID()
	if err := e.Once(context.Background(), Object{Type: wire.TypeStore, ID: id, Dst: self, Size: size}, Route{}, time.Minute); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Stored != 1 || st.BytesStored != size {
		t.Fatalf("store confirmed, but the depot's stats read %+v", st)
	}
	if n, err := e.Fetch(context.Background(), self, id, wire.TraceID{}); err != nil || n != size {
		t.Fatalf("fetch = %d, %v; want %d bytes", n, err, size)
	}

	short, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	for _, c := range []struct {
		stall time.Duration
		ctx   context.Context
		want  error
	}{{100 * time.Millisecond, context.Background(), os.ErrDeadlineExceeded}, {0, short, context.DeadlineExceeded}} {
		faults.StallAfter(0, time.Second)
		e.Stall = c.stall
		start := time.Now()
		if _, err := e.Fetch(c.ctx, self, id, wire.TraceID{}); !errors.Is(err, c.want) || time.Since(start) > 500*time.Millisecond {
			t.Fatalf("fetch from a stalled depot (stall bound %v) = %v after %v, want %v at once", c.stall, err, time.Since(start), c.want)
		}
	}
}
