//go:build !linux

package depot

import "net"

// sockQueues is the kernel-buffer occupancy probe of a relayed session.
// Only Linux exposes the figures (SIOCINQ / SIOCOUTQ); elsewhere there
// is no probe and the occupancy of such a session reads 0.
type sockQueues struct{}

func newSockQueues(up, dn *net.TCPConn) *sockQueues { return nil }

func (*sockQueues) bytes() int64 { return 0 }
