package depot

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/wire"
)

var tcpDial = lsl.DialerFunc(func(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 5*time.Second)
})

// relayBlock is the payload cycle of the loopback tests. Its length is
// coprime to the chunk and window sizes, so a window delivered twice,
// dropped or out of order cannot compare equal at the sink.
var relayBlock = func() []byte {
	b := make([]byte, 1<<20+13)
	rand.New(rand.NewSource(14)).Read(b)
	return b
}()

// writeCycle writes size bytes of the relayBlock cycle.
func writeCycle(w io.Writer, size int64) error {
	for off := int64(0); off < size; {
		piece := relayBlock[off%int64(len(relayBlock)):]
		if rest := size - off; int64(len(piece)) > rest {
			piece = piece[:rest]
		}
		n, err := w.Write(piece)
		off += int64(n)
		if err != nil {
			return err
		}
	}
	return nil
}

// sunk is what the rig's sink saw of one session.
type sunk struct {
	id    wire.SessionID
	bytes int64
	err   error // first read error other than EOF, or a payload mismatch
}

// sinkBufs recycles the sink's read buffers, so a small-session
// benchmark measures the depot and not the harness's allocator.
var sinkBufs = sync.Pool{New: func() any { b := make([]byte, 256<<10); return &b }}

// readCycle drains r, comparing it against the relayBlock cycle.
func readCycle(r io.Reader) (int64, error) {
	bp := sinkBufs.Get().(*[]byte)
	defer sinkBufs.Put(bp)
	buf := *bp
	var off int64
	var bad error
	for {
		n, err := r.Read(buf)
		for done := 0; done < n && bad == nil; {
			want := relayBlock[(off+int64(done))%int64(len(relayBlock)):]
			if len(want) > n-done {
				want = want[:n-done]
			}
			if !bytes.Equal(buf[done:done+len(want)], want) {
				bad = fmt.Errorf("payload differs within [%d,%d)", off+int64(done), off+int64(done+len(want)))
			}
			done += len(want)
		}
		off += int64(n)
		if err == io.EOF {
			return off, bad
		}
		if err != nil {
			return off, err
		}
	}
}

// tcpRig is a chain of depots and a byte-comparing sink on loopback
// TCP listeners: the deployment cmd/lsl-depot and cmd/lsl-xfer make.
type tcpRig struct {
	depots []*Server
	route  []wire.Endpoint
	sinkEP wire.Endpoint
	sunk   chan sunk
	// drain reads one accepted session; tests replace it to pace or
	// stop the sink. The default reads to EOF against the cycle.
	drain func(*lsl.Session) (int64, error)
}

// newTCPRig serves one depot per config (Self and Dial are filled in)
// in front of the sink. Everything is torn down with the test.
func newTCPRig(t testing.TB, cfgs ...Config) *tcpRig {
	t.Helper()
	r := &tcpRig{sunk: make(chan sunk, 1), drain: func(s *lsl.Session) (int64, error) { return readCycle(s) }}
	listen := func() (net.Listener, wire.Endpoint) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		ep, err := wire.ParseEndpoint(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return ln, ep
	}
	var sinkLn net.Listener
	sinkLn, r.sinkEP = listen()
	go func() {
		for {
			conn, err := sinkLn.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				sess, err := lsl.Accept(conn)
				if err != nil {
					r.sunk <- sunk{err: err}
					return
				}
				n, err := r.drain(sess)
				r.sunk <- sunk{id: sess.ID(), bytes: n, err: err}
			}()
		}
	}()
	for _, cfg := range cfgs {
		ln, ep := listen()
		cfg.Self, cfg.Dial = ep, tcpDial
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() {
			if !srv.Shutdown(5 * time.Second) {
				t.Errorf("depot %s did not drain", ep)
			}
		})
		r.depots = append(r.depots, srv)
		r.route = append(r.route, ep)
	}
	return r
}

func (r *tcpRig) open(t testing.TB, opts ...wire.Option) *lsl.Session {
	t.Helper()
	sess, err := lsl.Open(tcpDial, wire.MustEndpoint("127.0.0.1:1"), r.sinkEP, r.route, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// send pushes size bytes of the cycle through the chain and returns
// what the sink saw once it has read EOF.
func (r *tcpRig) send(t testing.TB, size int64, opts ...wire.Option) sunk {
	t.Helper()
	sess := r.open(t, opts...)
	werr := writeCycle(sess, size)
	sess.Close()
	if werr != nil {
		t.Fatalf("send: %v", werr)
	}
	got := <-r.sunk
	if got.id != sess.ID() {
		t.Fatalf("sink saw session %s, sent %s", got.id, sess.ID())
	}
	return got
}
