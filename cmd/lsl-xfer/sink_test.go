package main

import (
	"bytes"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/lsl"
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

// flipProxy forwards every connection it accepts on ln to addr, and
// flips the byte at stream position at of the first connection to reach
// it after being armed: corruption on the sink's own sublink, after the
// last depot re-stamped the frames.
func flipProxy(t *testing.T, ln net.Listener, addr string) *atomic.Int64 {
	at := new(atomic.Int64)
	at.Store(-1)
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
			go func() {
				buf := make([]byte, 32<<10)
				var pos int64
				for {
					n, err := c.Read(buf)
					if p := at.Load(); p >= pos && p < pos+int64(n) && at.CompareAndSwap(p, -1) {
						buf[p-pos] ^= 0xff
					}
					pos += int64(n)
					if _, werr := up.Write(buf[:n]); werr != nil || err != nil {
						up.Close()
						return
					}
				}
			}()
		}
	}()
	return at
}

// TestSinkOverTCP runs lsl-xfer's -sink behind two real depots on
// loopback TCP and reads each session's verdict from its status line.
func TestSinkOverTCP(t *testing.T) {
	var logs logLines
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	listen := func() (net.Listener, wire.Endpoint) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return ln, wire.MustEndpoint(ln.Addr().String())
	}

	// The sink answers to the proxy's endpoint: the last depot dials
	// the proxy, which relays to the sink's own listener.
	sinkLn, _ := listen()
	proxyLn, sinkEP := listen()
	srv, err := sinkServer(sinkEP, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	go srv.Serve(sinkLn) //nolint:errcheck // ends with the listener
	flipAt := flipProxy(t, proxyLn, sinkLn.Addr().String())
	var route []wire.Endpoint
	for i := 0; i < 2; i++ {
		ln, ep := listen()
		d, err := depot.New(depot.Config{Self: ep, Dial: tcpDial})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		go d.Serve(ln) //nolint:errcheck // ends with the listener
		route = append(route, ep)
	}

	const size = 256 << 10
	tid := wire.TraceID{0x7a, 1}
	send := func(id wire.SessionID, from, to int64, want wire.ContentDigest) {
		sess, err := lsl.Start(tcpDial, lsl.Spec{ID: id, Dst: sinkEP, Route: route, Offset: from, Options: []wire.Option{
			wire.TraceIDOption(tid), wire.ChunkChecksumOption(), wire.ContentDigestOption(want)}})
		if err != nil {
			t.Fatal(err)
		}
		sendPatternRange(sendWriter(sess, nil), id, from, to) //nolint:errcheck // a torn send shows in the sink's verdict
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
		t.Fatalf("session %s: %d status lines, want %d:\n%s", id, len(logs.statuses(id)), n, logs.buf.String())
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
