package bufpool

import (
	"sync"
	"testing"

	"github.com/netlogistics/lsl/internal/wire"
)

func TestGetPutRoundTrip(t *testing.T) {
	b := Get()
	if b == nil || len(*b) != ChunkSize {
		t.Fatalf("Get returned %v", b)
	}
	(*b)[0] = 0xAB
	Put(b)
	// A second Get must hand back a full-size buffer regardless of
	// whether the pool recycled ours.
	c := Get()
	if len(*c) != ChunkSize {
		t.Fatalf("recycled len = %d", len(*c))
	}
	Put(c)
}

func TestPutRejectsWrongSize(t *testing.T) {
	Put(nil) // must not panic
	short := make([]byte, 10)
	Put(&short) // silently dropped
	if b := Get(); len(*b) != ChunkSize {
		t.Fatalf("pool handed out a foreign buffer of len %d", len(*b))
	}
}

// TestFrameClass: the second size class holds the largest frame, and
// Put sends a buffer back to the pool of its own class.
func TestFrameClass(t *testing.T) {
	f := GetFrame()
	if len(*f) != FrameSize || FrameSize != wire.MaxFrameLen {
		t.Fatalf("GetFrame len = %d, FrameSize = %d, largest frame = %d", len(*f), FrameSize, wire.MaxFrameLen)
	}
	Put(f)
	for i := 0; i < 4; i++ {
		if c := Get(); len(*c) != ChunkSize {
			t.Fatalf("chunk pool handed out a buffer of len %d", len(*c))
		} else {
			defer Put(c)
		}
		if f := GetFrame(); len(*f) != FrameSize {
			t.Fatalf("frame pool handed out a buffer of len %d", len(*f))
		} else {
			defer Put(f)
		}
	}
}

// TestOutstandingCountsBuffersInHand: every Get raises the gauge, every
// accepted Put lowers it, from any goroutine; a rejected Put does not.
func TestOutstandingCountsBuffersInHand(t *testing.T) {
	base := Outstanding()
	a, b := Get(), GetFrame()
	if got := Outstanding() - base; got != 2 {
		t.Fatalf("two buffers in hand, gauge moved by %d", got)
	}
	short := make([]byte, 10)
	Put(&short)
	Put(nil)
	if got := Outstanding() - base; got != 2 {
		t.Fatalf("rejected Puts moved the gauge to %d", got)
	}
	Put(a)
	Put(b)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x, y := Get(), GetFrame()
				Put(y)
				Put(x)
			}
		}()
	}
	wg.Wait()
	if got := Outstanding() - base; got != 0 {
		t.Fatalf("everything returned, gauge reads %d", got)
	}
}

func TestGetAllocsAmortizeToZero(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		b := Get()
		Put(b)
	})
	// sync.Pool may miss occasionally (GC, per-P caches); the point is
	// that steady-state reuse does not allocate per call.
	if allocs > 0.1 {
		t.Fatalf("Get/Put allocates %.2f per op", allocs)
	}
}
