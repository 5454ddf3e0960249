package emu

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

func pairOn(t *testing.T, n *Network, from, to string) (client, server_ io.ReadWriteCloser) {
	t.Helper()
	ln, err := n.Listen(to)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	type res struct {
		c   io.ReadWriteCloser
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	c, err := n.Dial(from, to)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	return c, r.c
}

func TestRoundTripBytes(t *testing.T) {
	n := NewNetwork(0.001)
	client, server := pairOn(t, n, "a", "b:1")
	msg := []byte("hello across the emulated WAN")
	go func() {
		client.Write(msg)
		client.Close()
	}()
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestBidirectional(t *testing.T) {
	n := NewNetwork(0.001)
	client, server := pairOn(t, n, "a", "b:1")
	go func() {
		buf := make([]byte, 5)
		io.ReadFull(server, buf)
		server.Write(bytes.ToUpper(buf))
	}()
	client.Write([]byte("howdy"))
	buf := make([]byte, 5)
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "HOWDY" {
		t.Fatalf("reply = %q", buf)
	}
}

func TestLargeTransferIntegrity(t *testing.T) {
	n := NewNetwork(0.0001)
	n.SetLink("a", "b", LinkProps{Latency: 10 * time.Millisecond, Window: 64 << 10})
	client, server := pairOn(t, n, "a", "b:1")
	const size = 1 << 20
	src := make([]byte, size)
	for i := range src {
		src[i] = byte(i * 31)
	}
	go func() {
		client.Write(src)
		client.Close()
	}()
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("payload corrupted in transit")
	}
}

func TestLatencyObserved(t *testing.T) {
	n := NewNetwork(1)
	n.SetLink("a", "b", LinkProps{Latency: 30 * time.Millisecond})
	client, server := pairOn(t, n, "a", "b:1")
	start := time.Now()
	go client.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("one byte arrived in %v, want >= ~30ms", elapsed)
	}
}

func TestDialHandshakeCostsRTT(t *testing.T) {
	n := NewNetwork(1)
	n.SetLink("a", "b", LinkProps{Latency: 20 * time.Millisecond})
	ln, err := n.Listen("b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, _ := ln.Accept()
		if c != nil {
			defer c.Close()
		}
	}()
	start := time.Now()
	c, err := n.Dial("a", "b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if elapsed := time.Since(start); elapsed < 35*time.Millisecond {
		t.Fatalf("dial took %v, want >= ~40ms (one RTT)", elapsed)
	}
}

func TestRatePacing(t *testing.T) {
	n := NewNetwork(1)
	n.SetLink("a", "b", LinkProps{Rate: 1e6, Window: 1 << 20}) // 1 MB/s
	client, server := pairOn(t, n, "a", "b:1")
	const size = 200 << 10 // 200 KB should take ~0.2s
	go func() {
		client.Write(make([]byte, size))
		client.Close()
	}()
	start := time.Now()
	if _, err := io.Copy(io.Discard, server); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Fatalf("rate not enforced: %v for 200KB at 1MB/s", elapsed)
	}
	if elapsed > 600*time.Millisecond {
		t.Fatalf("rate far too slow: %v", elapsed)
	}
}

func TestWindowBackpressure(t *testing.T) {
	n := NewNetwork(1)
	n.SetLink("a", "b", LinkProps{Window: 4 << 10})
	client, server := pairOn(t, n, "a", "b:1")

	// Writing far beyond the window must block until the reader drains.
	done := make(chan struct{})
	go func() {
		client.Write(make([]byte, 64<<10))
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("write completed without reader; window not enforced")
	case <-time.After(50 * time.Millisecond):
	}
	go io.Copy(io.Discard, server)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("write never completed after reader drained")
	}
}

func TestCloseGivesEOF(t *testing.T) {
	n := NewNetwork(0.001)
	client, server := pairOn(t, n, "a", "b:1")
	client.Write([]byte("bye"))
	client.Close()
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "bye" {
		t.Fatalf("got %q", got)
	}
	// Writes after close fail.
	if _, err := client.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
}

func TestReadDeadline(t *testing.T) {
	n := NewNetwork(0.001)
	client, server := pairOn(t, n, "a", "b:1")
	defer client.Close()
	sc := server.(interface{ SetReadDeadline(time.Time) error })
	sc.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	buf := make([]byte, 1)
	start := time.Now()
	_, err := server.Read(buf)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("deadline fired far too late")
	}
}

func TestWriteDeadlineOnFullWindow(t *testing.T) {
	n := NewNetwork(1)
	n.SetLink("a", "b", LinkProps{Window: 1 << 10})
	client, _ := pairOn(t, n, "a", "b:1")
	wc := client.(interface{ SetWriteDeadline(time.Time) error })
	wc.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
	_, err := client.Write(make([]byte, 1<<20))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestListenErrors(t *testing.T) {
	n := NewNetwork(0.001)
	if _, err := n.Listen("not-an-address"); err == nil {
		t.Fatal("bad address accepted")
	}
	if _, err := n.Listen("a:1"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a:1"); err == nil {
		t.Fatal("duplicate listen accepted")
	}
}

func TestDialErrors(t *testing.T) {
	n := NewNetwork(0.001)
	if _, err := n.Dial("a", "nowhere:1"); err == nil {
		t.Fatal("dial to missing listener succeeded")
	}
	if _, err := n.Dial("a", "garbage"); err == nil {
		t.Fatal("dial to bad address succeeded")
	}
}

func TestListenerClose(t *testing.T) {
	n := NewNetwork(0.001)
	ln, err := n.Listen("a:1")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		done <- err
	}()
	ln.Close()
	if err := <-done; err == nil {
		t.Fatal("Accept on closed listener should fail")
	}
	// The address is free again.
	if _, err := n.Listen("a:1"); err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
	// Double close is safe.
	ln.Close()
}

func TestAddrs(t *testing.T) {
	n := NewNetwork(0.001)
	client, server := pairOn(t, n, "clienthost", "serverhost:9")
	cc := client.(net.Conn)
	sc := server.(net.Conn)
	if cc.RemoteAddr().String() != "serverhost:9" {
		t.Fatalf("client remote = %q", cc.RemoteAddr())
	}
	if cc.LocalAddr().Network() != "emu" {
		t.Fatalf("network = %q", cc.LocalAddr().Network())
	}
	if sc.LocalAddr().String() != "serverhost:9" {
		t.Fatalf("server local = %q", sc.LocalAddr())
	}
}

func TestConcurrentConnections(t *testing.T) {
	n := NewNetwork(0.0005)
	n.SetDefaultLink(LinkProps{Latency: 10 * time.Millisecond, Window: 32 << 10})
	ln, err := n.Listen("srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(io.Discard, c)
				c.Close()
			}()
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := n.Dial("cli", "srv:1")
			if err != nil {
				t.Error(err)
				return
			}
			c.Write(make([]byte, 100<<10))
			c.Close()
		}(i)
	}
	wg.Wait()
}

func TestSetDeadlineBothDirections(t *testing.T) {
	n := NewNetwork(0) // non-positive scale defaults to 1
	client, _ := pairOn(t, n, "a", "b:1")
	cc := client.(net.Conn)
	if err := cc.SetDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := cc.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read: %v", err)
	}
}

func TestListenerAddr(t *testing.T) {
	n := NewNetwork(0.001)
	ln, err := n.Listen("somehost:42")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if ln.Addr().String() != "somehost:42" || ln.Addr().Network() != "emu" {
		t.Fatalf("addr = %v/%v", ln.Addr().Network(), ln.Addr())
	}
}

// streamByte is what stream `id` carries at position pos: distinct per
// stream, so bytes that leak from one pipe's buffer into another's
// cannot pass for the right ones.
func streamByte(id int, pos int64) byte { return byte(pos) ^ byte(pos>>8)*31 ^ byte(id*37+1) }

// TestPooledSegmentsDoNotAlias drives many pipes at once over the one
// buffer pool they share: writes of 1 B to 96 KiB, reads of every size
// (most leave a segment part-read), read deadlines that fire with a
// segment part-read, and readers that close with segments in flight.
// Every byte read must be the byte written at that position. A buffer
// returned to the pool while any of it is unread would be refilled by
// another pipe's writer — a wrong byte here, and a data race under
// -race (the two pipes hold different locks).
func TestPooledSegmentsDoNotAlias(t *testing.T) {
	n := NewNetwork(0.001)
	n.SetDefaultLink(LinkProps{Latency: 2 * time.Millisecond, Window: 256 << 10})
	const pipes, total = 12, 3 << 20
	var wg sync.WaitGroup
	for id := 0; id < pipes; id++ {
		client, server := pairOn(t, n, "src", net.JoinHostPort("dst", string(rune('a'+id))))
		abandonAt := int64(-1)
		if id%4 == 3 {
			abandonAt = total / 3 // this reader walks away with segments in flight
		}
		wg.Add(2)
		go func(id int) { // writer
			defer wg.Done()
			defer client.Close()
			rng := rand.New(rand.NewSource(int64(id)))
			buf := make([]byte, 96<<10)
			for pos := int64(0); pos < total; {
				chunk := buf[:1+rng.Intn(len(buf))]
				if rng.Intn(4) == 0 {
					chunk = chunk[:1+rng.Intn(64)]
				}
				chunk = chunk[:min(int64(len(chunk)), total-pos)]
				for i := range chunk {
					chunk[i] = streamByte(id, pos+int64(i))
				}
				m, err := client.Write(chunk)
				pos += int64(m)
				if err != nil {
					if abandonAt < 0 || !errors.Is(err, ErrClosed) {
						t.Errorf("pipe %d: write at %d: %v", id, pos, err)
					}
					return
				}
			}
		}(id)
		go func(id int) { // reader
			defer wg.Done()
			defer server.Close()
			rng := rand.New(rand.NewSource(int64(1000 + id)))
			buf := make([]byte, 50<<10)
			conn := server.(net.Conn)
			for pos := int64(0); ; {
				if abandonAt >= 0 && pos >= abandonAt {
					return
				}
				if rng.Intn(8) == 0 {
					// Expires at once or in a moment: either way with the
					// head segment possibly half consumed.
					conn.SetReadDeadline(time.Now().Add(time.Duration(rng.Intn(200)) * time.Microsecond))
				} else {
					conn.SetReadDeadline(time.Time{})
				}
				m, err := server.Read(buf[:1+rng.Intn(len(buf))])
				for i := 0; i < m; i++ {
					if buf[i] != streamByte(id, pos+int64(i)) {
						t.Errorf("pipe %d: byte %d is %#x, want %#x", id, pos+int64(i), buf[i], streamByte(id, pos+int64(i)))
						return
					}
				}
				pos += int64(m)
				switch {
				case err == nil || errors.Is(err, os.ErrDeadlineExceeded):
				case err == io.EOF && pos == total:
					return
				default:
					t.Errorf("pipe %d: read at %d: %v", id, pos, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
}

// TestSegmentBuffersStayWithinTwiceTheWindow: the window bounds the
// bytes in flight, not the segments, so a pipe full of small writes —
// frame headers, acks — must not pin a pooled 32 KiB buffer for each.
func TestSegmentBuffersStayWithinTwiceTheWindow(t *testing.T) {
	p := newShapedPipe(LinkProps{Window: 64 << 10})
	for _, size := range []int{1, 8, maxSegment/2 + 1, 8, maxSegment, 100, 8} {
		if _, err := p.Write(make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	held := 0
	for _, seg := range p.segs {
		if seg.buf != nil {
			held += cap(*seg.buf)
		} else {
			held += cap(seg.data)
		}
	}
	if held > 2*p.inFlight {
		t.Fatalf("%d bytes in flight hold %d bytes of buffers", p.inFlight, held)
	}
}

// BenchmarkEmuConn moves 8 MiB over an unpaced pipe: what the emulator
// itself costs per byte — a copy in, a copy out, and the segment queue.
func BenchmarkEmuConn(b *testing.B) {
	n := NewNetwork(1)
	n.SetDefaultLink(LinkProps{Window: 4 << 20})
	ln, err := n.Listen("sink:1")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan int64)
	go func() {
		buf := make([]byte, 32<<10)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var total int64
			for {
				m, err := conn.Read(buf)
				total += int64(m)
				if err != nil {
					break
				}
			}
			conn.Close()
			drained <- total
		}
	}()
	block := make([]byte, 1<<20)
	const size = 8 << 20
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := n.Dial("src", "sink:1")
		if err != nil {
			b.Fatal(err)
		}
		for off := 0; off < size; off += len(block) {
			if _, err := conn.Write(block); err != nil {
				b.Fatal(err)
			}
		}
		conn.Close()
		if got := <-drained; got != size {
			b.Fatalf("drained %d bytes", got)
		}
	}
}
