// Package bufpool provides the shared pool of fixed-size copy buffers
// behind every hot loop of the data path: the depot forwarding pump,
// the pattern generators, and the sink read loops.
//
// The forwarding pump used to allocate one fresh chunk per 32 KiB of
// payload (a chunk's lifetime outlives the read loop — it sits in the
// pipeline channel until the downstream sublink drains it), which put
// ~256 allocations and 8 MB of garbage on every 8 MB forwarded. A
// sync.Pool turns that into a small steady-state working set sized by
// the pipeline depth, while striped transfers — N concurrent pumps per
// hop — share one pool instead of multiplying the garbage by N.
//
// Buffers are handed out as *[]byte so returning one to the pool does
// not re-box the slice header on every Put. The canonical shape:
//
//	bp := bufpool.Get()
//	defer bufpool.Put(bp)
//	buf := *bp // len(buf) == bufpool.ChunkSize
//
// A second size class, FrameSize, holds one whole checksummed frame:
// the depot pump's unit on a checksummed session, where a frame is
// read, verified and written downstream in the buffer it landed in.
// Put takes either class. Outstanding counts the buffers handed out and
// not yet returned — zero whenever nothing is in flight, so a leak on
// an error path shows.
package bufpool

import (
	"sync"
	"sync/atomic"

	"github.com/netlogistics/lsl/internal/wire"
)

const (
	// ChunkSize is the length of a buffer from Get: the depot pipeline's
	// chunk unit on a plain session (32 KiB, matching the paper's
	// forwarding granularity).
	ChunkSize = 32 << 10
	// FrameSize is the length of a buffer from GetFrame: room for the
	// largest checksummed frame, header included.
	FrameSize = wire.MaxFrameLen
)

var (
	chunks      = sync.Pool{New: func() any { return alloc(ChunkSize) }}
	frames      = sync.Pool{New: func() any { return alloc(FrameSize) }}
	outstanding atomic.Int64
)

func alloc(n int) *[]byte {
	b := make([]byte, n)
	return &b
}

// Get returns a buffer of length ChunkSize. The contents are
// arbitrary; callers must not assume zeroing.
func Get() *[]byte {
	outstanding.Add(1)
	return chunks.Get().(*[]byte)
}

// GetFrame returns a buffer of length FrameSize, contents arbitrary.
func GetFrame() *[]byte {
	outstanding.Add(1)
	return frames.Get().(*[]byte)
}

// Put returns a buffer obtained from Get or GetFrame to its pool. The
// caller must not touch the slice afterwards. Buffers whose length has
// been changed (rather than re-sliced locally) are rejected, protecting
// the pools' fixed-size invariant.
func Put(b *[]byte) {
	if b == nil {
		return
	}
	switch len(*b) {
	case ChunkSize:
		chunks.Put(b)
	case FrameSize:
		frames.Put(b)
	default:
		return
	}
	outstanding.Add(-1)
}

// Outstanding returns how many pooled buffers, of either class, are
// handed out and not yet returned.
func Outstanding() int64 { return outstanding.Load() }
