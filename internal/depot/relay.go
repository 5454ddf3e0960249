package depot

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"github.com/netlogistics/lsl/internal/fairshare"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// relayWindow is how much payload the kernel relay moves between two
// rounds of accounting. It sets the granularity of everything the
// depot reports about such a session — live byte progress, the
// occupancy sample, the idle deadline — against the per-window cost
// of a ReadFrom call: 64 windows per 64 MiB object.
const relayWindow = 1 << 20

// relayPlan is what one data session arms between its upstream and
// its downstream sublink at this depot, in the order payload meets the
// stages. It is decided once, from the session header, the depot's
// configuration and the two transports, and it alone selects the
// relay: a plan with no stage that must see payload bytes or chunk
// boundaries, over two TCP sockets, is relayed by the kernel; every
// other plan by the bounded user-space pump.
type relayPlan struct {
	up     net.Conn        // the accepted transport, nothing interposed
	idle   time.Duration   // abort when upstream makes no progress for this long (Config.IdleTimeout)
	faults *FaultInjector  // drop, stall or corrupt upstream reads (Config.Faults)
	verify bool            // CRC-32C verify per frame, a frame per chunk (OptChunkChecksum)
	tap    *cacheTap       // populate the cache (OptContentDigest + Config.Cache)
	gate   *fairshare.Flow // weighted credit per chunk written downstream (Config.FairShare)
}

func (s *Server) planRelay(up net.Conn, h *wire.Header, f *flow) relayPlan {
	return relayPlan{
		up:     up,
		idle:   s.cfg.IdleTimeout,
		faults: s.cfg.Faults,
		verify: h.Checksummed(),
		tap:    s.cacheTap(h),
		gate:   f.fs,
	}
}

// kernelPair returns the two sockets of a session the kernel can
// relay. The idle deadline is the one stage that does not disqualify
// it: a socket deadline needs no sight of the bytes.
func (p *relayPlan) kernelPair(down net.Conn) (up, dn *net.TCPConn, ok bool) {
	if p.faults != nil || p.verify || p.tap != nil || p.gate != nil {
		return nil, nil, false
	}
	if up, ok = p.up.(*net.TCPConn); !ok {
		return nil, nil, false
	}
	dn, ok = down.(*net.TCPConn)
	return up, dn, ok
}

// relayDetail is the connect event's record of which relay a session
// took.
func relayDetail(kernel bool) string {
	if kernel {
		return "relay=kernel"
	}
	return "relay=pump"
}

// relayKernel moves the session payload from up to dn inside the
// kernel: (*net.TCPConn).ReadFrom splices socket → pipe → socket, so
// no payload byte is copied into this process and none of the pump's
// per-chunk goroutine hand-offs happen. The bytes a session has in
// flight at this depot sit in the two sockets' kernel buffers, which
// the kernel sizes; upstream is back-pressured when they fill, as it
// is by a full pump pipeline.
//
// After every window the depot does the accounting the pump does per
// chunk: forwarded bytes, the session entry's live progress, the
// first-byte event, the idle deadline re-armed. The first window is
// one pump chunk, so "first byte" means the same on both relays.
//
// When a registry or a session table would read it, each window also
// samples what the kernel holds for the session in the two sockets and
// publishes that as its pipeline occupancy: it is the quantity the
// pump's queue holds in user space, so /sessions and the back-pressure
// alert read alike on both relays.
func (s *Server) relayKernel(dn, up *net.TCPConn, idle time.Duration, f *flow) (int64, error) {
	start := time.Now()
	var queues *sockQueues
	if s.met.occupancy != nil || f.entry != nil {
		queues = newSockQueues(up, dn) // nil off Linux
	}
	var (
		written int64
		parked  int64 // what this session last published as occupancy
		err     error
		size    = int64(chunkSize)
		window  = io.LimitedReader{R: up}
	)
	publish := func(now int64) {
		s.met.occupancy.Add(now - parked)
		f.addQueued(now - parked)
		parked = now
	}
	for {
		if idle > 0 {
			if err = up.SetReadDeadline(time.Now().Add(idle)); err != nil {
				break
			}
		}
		window.N = size
		n, rerr := dn.ReadFrom(&window)
		if n > 0 {
			if f.firstByte() {
				f.emit(obs.KindFirstByte, obs.Event{})
			}
			written += n
			s.countForwarded(f, n)
		}
		if queues != nil {
			publish(queues.bytes())
		}
		if rerr != nil {
			if n > 0 && errors.Is(rerr, os.ErrDeadlineExceeded) {
				// The deadline fell inside a window that was moving
				// bytes: progress, not idleness.
				continue
			}
			err = fmt.Errorf("relay: %w", rerr)
			break
		}
		if n < size {
			break // upstream closed: end of stream
		}
		size = relayWindow
	}
	publish(0)
	s.lastByte(f, start, written)
	return written, err
}
