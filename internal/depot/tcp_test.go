package depot

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/wire"
)

// TestRealTCPChain exercises the depot stack over real loopback TCP
// sockets: sender → depot → sink, with pattern verification at the
// sink. This is the deployment configuration of cmd/lsl-depot and
// cmd/lsl-xfer.
func TestRealTCPChain(t *testing.T) {
	dial := lsl.DialerFunc(func(addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, 5*time.Second)
	})

	// Sink on an ephemeral port.
	sinkLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sinkLn.Close()
	sinkEP, err := wire.ParseEndpoint(sinkLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	type delivery struct {
		id    wire.SessionID
		bytes int64
		err   error
	}
	got := make(chan delivery, 1)
	sink, err := New(Config{
		Self: sinkEP,
		Dial: dial,
		Local: func(s *lsl.Session) error {
			var total int64
			var verr error
			buf := make([]byte, 32<<10)
			for {
				n, rerr := s.Read(buf)
				if n > 0 {
					if verr == nil {
						verr = VerifyPattern(buf[:n], s.ID(), total)
					}
					total += int64(n)
				}
				if rerr == io.EOF {
					break
				}
				if rerr != nil {
					verr = rerr
					break
				}
			}
			got <- delivery{s.ID(), total, verr}
			return verr
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	go sink.Serve(sinkLn)
	defer sink.Close()

	// Relay depot on another ephemeral port.
	relayLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer relayLn.Close()
	relayEP, err := wire.ParseEndpoint(relayLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	relay, err := New(Config{Self: relayEP, Dial: dial, PipelineBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	go relay.Serve(relayLn)
	defer relay.Close()

	// Send 4 MB through the relay.
	const size = 4 << 20
	src := wire.MustEndpoint("127.0.0.1:1")
	sess, err := lsl.Open(dial, src, sinkEP, []wire.Endpoint{relayEP})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 64<<10)
		var written int64
		for written < size {
			n := int64(len(buf))
			if remaining := size - written; remaining < n {
				n = remaining
			}
			FillPattern(buf[:n], sess.ID(), written)
			m, err := sess.Write(buf[:n])
			written += int64(m)
			if err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
		sess.Close()
	}()

	select {
	case d := <-got:
		if d.err != nil {
			t.Fatalf("sink verification: %v", d.err)
		}
		if d.id != sess.ID() {
			t.Fatal("session id mismatch across TCP chain")
		}
		if d.bytes != size {
			t.Fatalf("sink received %d of %d", d.bytes, size)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("transfer over real TCP timed out")
	}
	wg.Wait()

	if st := relay.Stats(); st.Forwarded != 1 || st.BytesForwarded != size {
		t.Fatalf("relay stats = %+v", st)
	}
}

// TestRealTCPGenerate exercises the generate-data request over real
// sockets, as cmd/lsl-xfer -generate does.
func TestRealTCPGenerate(t *testing.T) {
	dial := lsl.DialerFunc(func(addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, 5*time.Second)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	self, err := wire.ParseEndpoint(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Self: self, Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	sess, err := lsl.Start(dial, lsl.Spec{Type: wire.TypeGenerate, Src: wire.MustEndpoint("127.0.0.1:1"), Dst: self, Options: []wire.Option{wire.GenerateOption(100 << 10)}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := srv.Stats()
		if st.Generated == 1 && st.Delivered == 1 {
			if st.BytesDelivered != 100<<10 {
				t.Fatalf("delivered %d bytes", st.BytesDelivered)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("generation never completed: %+v", srv.Stats())
}
