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
