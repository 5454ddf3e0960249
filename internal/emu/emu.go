// Package emu provides an in-memory emulated wide-area network for the
// real (goroutine-based) LSL protocol stack: net.Conn connections with
// propagation latency, token-bucket rate pacing, and a bounded
// in-flight window that exerts back-pressure on writers.
//
// The paper's depots ran over real WAN TCP; this package supplies the
// "latency emulation" a single-machine reproduction needs so the
// protocol code (internal/lsl, internal/depot) exercises the same
// blocking, buffering and cascade behaviour it would against real
// sockets. Fidelity note: the window here is fixed (no slow start or
// loss), because protocol correctness is what runs on this substrate;
// the performance dynamics live in internal/tcpsim.
package emu

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"github.com/netlogistics/lsl/internal/bufpool"
)

// LinkProps describes one direction of an emulated path.
type LinkProps struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Rate is the serialization rate in bytes/sec (0 = unlimited).
	Rate float64
	// Window bounds the bytes in flight (written but not yet read);
	// writers block when it is full. 0 selects DefaultWindow.
	Window int
}

// DefaultWindow is the in-flight byte limit used when LinkProps.Window
// is zero, matching the paper's PlanetLab 64 KB socket buffers.
const DefaultWindow = 64 << 10

// Network is a registry of emulated hosts, listeners and link
// properties. The zero value is unusable; construct with NewNetwork.
type Network struct {
	mu sync.Mutex
	// TimeScale multiplies every latency, letting tests run a "wide
	// area" network in microseconds. 1.0 emulates in real time.
	timeScale   float64
	listeners   map[string]*listener
	links       map[[2]string]LinkProps
	defaultLink LinkProps
}

// NewNetwork returns an empty network whose latencies are scaled by
// timeScale (e.g. 0.001 runs a 40 ms link as 40 µs). Non-positive
// scales default to 1.
func NewNetwork(timeScale float64) *Network {
	if timeScale <= 0 {
		timeScale = 1
	}
	return &Network{
		timeScale: timeScale,
		listeners: make(map[string]*listener),
		links:     make(map[[2]string]LinkProps),
	}
}

// SetDefaultLink sets the properties used for pairs with no explicit
// link.
func (n *Network) SetDefaultLink(p LinkProps) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defaultLink = p
}

// SetLink sets the properties of the path between hosts a and b
// (symmetric). Host names are the host parts of dial/listen addresses.
func (n *Network) SetLink(a, b string, p LinkProps) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[[2]string{a, b}] = p
	n.links[[2]string{b, a}] = p
}

func (n *Network) linkFor(a, b string) LinkProps {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.links[[2]string{a, b}]; ok {
		return p
	}
	return n.defaultLink
}

func (p LinkProps) scaled(timeScale float64) LinkProps {
	p.Latency = time.Duration(float64(p.Latency) * timeScale)
	if p.Window == 0 {
		p.Window = DefaultWindow
	}
	return p
}

// addr is the net.Addr of emulated endpoints.
type addr string

func (a addr) Network() string { return "emu" }
func (a addr) String() string  { return string(a) }

// listener implements net.Listener.
type listener struct {
	net     *Network
	address string
	backlog chan net.Conn
	done    chan struct{}
	once    sync.Once
}

// Listen registers a listener at address ("host:port").
func (n *Network) Listen(address string) (net.Listener, error) {
	if _, _, err := net.SplitHostPort(address); err != nil {
		return nil, fmt.Errorf("emu: listen %q: %w", address, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[address]; exists {
		return nil, fmt.Errorf("emu: listen %q: address in use", address)
	}
	l := &listener{
		net:     n,
		address: address,
		backlog: make(chan net.Conn, 64),
		done:    make(chan struct{}),
	}
	n.listeners[address] = l
	return l, nil
}

// Accept implements net.Listener.
func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, errors.New("emu: listener closed")
	}
}

// Close implements net.Listener.
func (l *listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.listeners, l.address)
		l.net.mu.Unlock()
	})
	return nil
}

// Addr implements net.Listener.
func (l *listener) Addr() net.Addr { return addr(l.address) }

// Dial connects from the named local host to a listening address,
// applying the link properties registered between the two hosts. The
// connection-establishment handshake costs one round trip.
func (n *Network) Dial(fromHost, to string) (net.Conn, error) {
	toHost, _, err := net.SplitHostPort(to)
	if err != nil {
		return nil, fmt.Errorf("emu: dial %q: %w", to, err)
	}
	n.mu.Lock()
	l, ok := n.listeners[to]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("emu: dial %q: connection refused", to)
	}
	props := n.linkFor(fromHost, toHost).scaled(n.timeScale)

	// One emulated round trip of connection establishment.
	time.Sleep(2 * props.Latency)

	clientToServer := newShapedPipe(props)
	serverToClient := newShapedPipe(props)
	local := addr(fromHost + ":0")
	remote := addr(to)
	client := &conn{r: serverToClient, w: clientToServer, local: local, remote: remote}
	server := &conn{r: clientToServer, w: serverToClient, local: remote, remote: local}
	select {
	case l.backlog <- server:
	case <-l.done:
		return nil, fmt.Errorf("emu: dial %q: connection refused (listener closed)", to)
	}
	return client, nil
}

// conn glues two unidirectional shaped pipes into a net.Conn.
type conn struct {
	r, w          *shapedPipe
	local, remote net.Addr
}

func (c *conn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *conn) Write(p []byte) (int, error) { return c.w.Write(p) }

func (c *conn) Close() error {
	c.w.CloseWrite()
	c.r.CloseRead()
	return nil
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

func (c *conn) SetDeadline(t time.Time) error {
	c.r.setReadDeadline(t)
	c.w.setWriteDeadline(t)
	return nil
}
func (c *conn) SetReadDeadline(t time.Time) error  { c.r.setReadDeadline(t); return nil }
func (c *conn) SetWriteDeadline(t time.Time) error { c.w.setWriteDeadline(t); return nil }

var _ net.Conn = (*conn)(nil)

// ErrClosed is returned by writes on a closed pipe.
var ErrClosed = errors.New("emu: connection closed")

// segment is a chunk of bytes in flight with its delivery time. A
// segment of more than half a pooled buffer sits in one, which goes
// back to the pool when the reader has drained it; a smaller one — a
// header, an ack, the tail of a write — gets a slice of its own size,
// so the buffers a pipe holds stay within twice its window. A pipe
// closed for reading returns what is still in flight. (Why pooled:
// DESIGN.md §10.)
type segment struct {
	buf     *[]byte // from bufpool; nil for a small segment
	data    []byte  // the unread bytes
	readyAt time.Time
}

// shapedPipe is a unidirectional byte stream with latency, rate pacing
// and a bounded in-flight window.
type shapedPipe struct {
	props LinkProps

	mu       sync.Mutex
	cond     *sync.Cond
	segs     []segment
	inFlight int
	nextFree time.Time // rate-pacing horizon
	wclosed  bool
	rclosed  bool

	readDeadline  time.Time
	writeDeadline time.Time
}

func newShapedPipe(props LinkProps) *shapedPipe {
	p := &shapedPipe{props: props}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// maxSegment bounds chunking so pacing is smooth; a full segment fills
// one pooled buffer.
const maxSegment = bufpool.ChunkSize

func (p *shapedPipe) Write(buf []byte) (int, error) {
	total := 0
	for len(buf) > 0 {
		chunk := buf
		if len(chunk) > maxSegment {
			chunk = chunk[:maxSegment]
		}
		n, err := p.writeSegment(chunk)
		total += n
		if err != nil {
			return total, err
		}
		buf = buf[n:]
	}
	return total, nil
}

func (p *shapedPipe) writeSegment(chunk []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.wclosed || p.rclosed {
			return 0, ErrClosed
		}
		if dl := p.writeDeadline; !dl.IsZero() && !time.Now().Before(dl) {
			return 0, os.ErrDeadlineExceeded
		}
		if p.inFlight+len(chunk) <= p.props.Window || p.inFlight == 0 {
			break
		}
		p.waitLocked(p.writeDeadline)
	}
	now := time.Now()
	start := now
	if p.nextFree.After(start) {
		start = p.nextFree
	}
	var tx time.Duration
	if p.props.Rate > 0 {
		tx = time.Duration(float64(len(chunk)) / p.props.Rate * float64(time.Second))
	}
	p.nextFree = start.Add(tx)
	seg := segment{readyAt: start.Add(tx + p.props.Latency)}
	if len(chunk) > maxSegment/2 {
		seg.buf = bufpool.Get()
		seg.data = (*seg.buf)[:copy(*seg.buf, chunk)]
	} else {
		seg.data = append([]byte(nil), chunk...)
	}
	p.segs = append(p.segs, seg)
	p.inFlight += len(chunk)
	p.cond.Broadcast()
	return len(chunk), nil
}

func (p *shapedPipe) Read(buf []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.rclosed {
			return 0, ErrClosed
		}
		if dl := p.readDeadline; !dl.IsZero() && !time.Now().Before(dl) {
			return 0, os.ErrDeadlineExceeded
		}
		if len(p.segs) > 0 {
			head := &p.segs[0]
			now := time.Now()
			if !head.readyAt.After(now) {
				n := copy(buf, head.data)
				head.data = head.data[n:]
				p.inFlight -= n
				if len(head.data) == 0 {
					// Drained, and no longer referenced from the queue.
					if head.buf != nil {
						bufpool.Put(head.buf)
					}
					*head = segment{}
					p.segs = p.segs[1:]
				}
				p.cond.Broadcast() // window space freed
				return n, nil
			}
			// Head not yet delivered: wait until its arrival (or the
			// read deadline, whichever is first).
			dl := head.readyAt
			if rd := p.readDeadline; !rd.IsZero() && rd.Before(dl) {
				dl = rd
			}
			p.waitLocked(dl)
			continue
		}
		if p.wclosed {
			return 0, io.EOF
		}
		p.waitLocked(p.readDeadline)
	}
}

// waitLocked waits on the pipe's condition variable, additionally
// waking at the given deadline when it is non-zero.
func (p *shapedPipe) waitLocked(deadline time.Time) {
	if deadline.IsZero() {
		p.cond.Wait()
		return
	}
	d := time.Until(deadline)
	if d <= 0 {
		return
	}
	t := time.AfterFunc(d, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	p.cond.Wait()
	t.Stop()
}

// CloseWrite marks the producer side closed; readers drain then see EOF.
func (p *shapedPipe) CloseWrite() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wclosed = true
	p.cond.Broadcast()
}

// CloseRead shuts the consumer side; subsequent reads and pending
// writes fail, so nothing in flight will be read: its buffers go back.
func (p *shapedPipe) CloseRead() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rclosed = true
	for _, seg := range p.segs {
		bufpool.Put(seg.buf)
	}
	p.segs = nil
	p.cond.Broadcast()
}

func (p *shapedPipe) setReadDeadline(t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.readDeadline = t
	p.cond.Broadcast()
}

func (p *shapedPipe) setWriteDeadline(t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.writeDeadline = t
	p.cond.Broadcast()
}
