//go:build linux

package depot

import (
	"net"
	"syscall"
	"unsafe"
)

// sockQueues reads how much payload the kernel holds at this depot for
// a session relayed between two sockets: SIOCINQ on the upstream one
// (received, not yet moved on) plus SIOCOUTQ on the downstream one
// (written, not yet acknowledged by the next hop). The ioctl closure is
// bound once, so a sample allocates nothing.
type sockQueues struct {
	up, dn syscall.RawConn
	req    uintptr
	n      int32
	errno  syscall.Errno
	ioctl  func(fd uintptr)
}

// newSockQueues returns nil when the sockets cannot be queried.
func newSockQueues(up, dn *net.TCPConn) *sockQueues {
	q := &sockQueues{}
	var err error
	if q.up, err = up.SyscallConn(); err != nil {
		return nil
	}
	if q.dn, err = dn.SyscallConn(); err != nil {
		return nil
	}
	q.ioctl = func(fd uintptr) {
		_, _, q.errno = syscall.Syscall(syscall.SYS_IOCTL, fd, q.req, uintptr(unsafe.Pointer(&q.n)))
	}
	return q
}

// bytes samples both queues. A socket that cannot be read counts as
// empty.
func (q *sockQueues) bytes() int64 {
	return q.read(q.up, syscall.TIOCINQ) + q.read(q.dn, syscall.TIOCOUTQ)
}

func (q *sockQueues) read(c syscall.RawConn, req uintptr) int64 {
	q.req, q.n = req, 0
	if err := c.Control(q.ioctl); err != nil || q.errno != 0 {
		return 0
	}
	return int64(q.n)
}
