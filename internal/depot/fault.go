package depot

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"github.com/netlogistics/lsl/internal/obs"
)

// ErrInjected is the root of every fault-injection error, so recovery
// code and tests can recognize deliberately induced failures. Its text
// contains "injected fault", which the retry package classifies as
// transient — injected faults model path events, not protocol bugs.
var ErrInjected = errors.New("depot: injected fault")

// FaultInjector deterministically perturbs a depot's data path so every
// recovery branch — sublink retry, resume-at-offset, depot failover —
// is testable without real process kills. The zero value injects
// nothing; arm a fault, run the traffic, and the injector fires at the
// configured point:
//
//   - RefuseConnect: every new transport connection is closed before
//     the session header is read, as a crashed depot process behind a
//     live address would. Persistent until disarmed.
//   - DropAfter(n): once more than n payload bytes have entered this
//     depot, the next read of a session transport that has already
//     carried payload is discarded and the transport torn down. One-shot:
//     the fault disarms after firing, modelling a depot that dies once
//     mid-stream.
//   - StallAfter(n, d): after n payload bytes the depot stops reading
//     or writing for d, modelling a wedged process. One-shot.
//   - CorruptAfter(n): the first chunk read past n payload bytes has a
//     byte flipped in place, modelling silent data corruption — the one
//     fault retries must NOT paper over. One-shot.
//
// All methods are safe for concurrent use with a running server.
type FaultInjector struct {
	refuse       atomic.Bool
	dropAfter    atomic.Int64 // payload-byte threshold; <0 disarmed
	stallAfter   atomic.Int64 // payload-byte threshold; <0 disarmed
	corruptAfter atomic.Int64 // payload-byte threshold; <0 disarmed
	stallNanos   atomic.Int64
	seen         atomic.Int64 // payload bytes since the last Clear
	injected     atomic.Int64
}

// NewFaultInjector returns a disarmed injector.
func NewFaultInjector() *FaultInjector {
	f := &FaultInjector{}
	f.Clear()
	return f
}

// Clear disarms every fault and resets the byte counter.
func (f *FaultInjector) Clear() {
	f.refuse.Store(false)
	f.dropAfter.Store(-1)
	f.stallAfter.Store(-1)
	f.corruptAfter.Store(-1)
	f.stallNanos.Store(0)
	f.seen.Store(0)
}

// RefuseConnect arms or disarms connection refusal.
func (f *FaultInjector) RefuseConnect(on bool) { f.refuse.Store(on) }

// DropAfter arms a one-shot transport teardown after n payload bytes
// (counted across sessions since the last Clear; n=0 drops a
// transport's second chunk).
func (f *FaultInjector) DropAfter(n int64) {
	f.seen.Store(0)
	f.dropAfter.Store(n)
}

// StallAfter arms a one-shot stall of duration d of the next read or
// write after n payload bytes.
func (f *FaultInjector) StallAfter(n int64, d time.Duration) {
	f.seen.Store(0)
	f.stallNanos.Store(int64(d))
	f.stallAfter.Store(n)
}

// CorruptAfter arms a one-shot single-byte corruption on the first
// chunk read past n payload bytes.
func (f *FaultInjector) CorruptAfter(n int64) {
	f.seen.Store(0)
	f.corruptAfter.Store(n)
}

// Injected reports how many faults have fired since construction.
func (f *FaultInjector) Injected() int64 { return f.injected.Load() }

// refusing reports (and counts) whether an incoming connection should
// be abruptly closed. Nil-safe.
func (f *FaultInjector) refusing() bool {
	if f == nil || !f.refuse.Load() {
		return false
	}
	f.injected.Add(1)
	return true
}

// wrap interposes the injector on a session transport, reporting fired
// faults to met (which may be nil). Nil-safe: a nil injector returns
// conn unchanged.
func (f *FaultInjector) wrap(conn net.Conn, met *obs.Counter) net.Conn {
	if f == nil {
		return conn
	}
	return &faultConn{Conn: conn, f: f, met: met}
}

// faultConn fires armed faults as payload flows through Read — the
// direction every depot role (forward, deliver, store) consumes the
// session from — and a stall on Write as well.
type faultConn struct {
	net.Conn
	f       *FaultInjector
	met     *obs.Counter
	carried int64 // payload bytes read so far; Read has one caller
}

// stall fires an armed stall once its threshold is reached.
func (c *faultConn) stall() {
	f := c.f
	if st := f.stallAfter.Load(); st >= 0 && f.seen.Load() >= st && f.stallAfter.CompareAndSwap(st, -1) {
		f.injected.Add(1)
		c.met.Inc()
		time.Sleep(time.Duration(f.stallNanos.Load()))
	}
}

// Write stalls like Read: a wedged depot answers nothing, not a fetch.
func (c *faultConn) Write(p []byte) (int, error) {
	c.stall()
	return c.Conn.Write(p)
}

func (c *faultConn) Read(p []byte) (int, error) {
	f := c.f
	c.stall()
	n, err := c.Conn.Read(p)
	if co := f.corruptAfter.Load(); co >= 0 && n > 0 && f.seen.Load()+int64(n) > co {
		if f.corruptAfter.CompareAndSwap(co, -1) {
			f.injected.Add(1)
			c.met.Inc()
			p[0] ^= 0xFF
		}
	}
	seen := f.seen.Add(int64(n))
	carried := c.carried
	c.carried += int64(n)
	// The drop discards a read that carries bytes, on a transport that
	// has carried some before, so the torn session is always mid-stream:
	// it has delivered a prefix to resume from and loses the rest.
	// Checking before the read instead would tear whichever transport
	// read next, possibly one at its end reading only EOF.
	if d := f.dropAfter.Load(); d >= 0 && n > 0 && carried > 0 && seen > d {
		if f.dropAfter.CompareAndSwap(d, -1) {
			f.injected.Add(1)
			c.met.Inc()
			c.Conn.Close()
			return 0, fmt.Errorf("%w: drop after %d bytes", ErrInjected, d)
		}
	}
	return n, err
}
