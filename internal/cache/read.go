package cache

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"

	"github.com/netlogistics/lsl/internal/bufpool"
	"github.com/netlogistics/lsl/internal/wire"
)

// Open returns a reader over r, counted as one serve attempt: a hit if
// the range is contiguously held, otherwise ErrMiss. The read is lazy
// and every stored block is CRC-checked as it is read, so corruption of
// cached state surfaces as wire.ErrChecksum partway through the read;
// the damaged span is dropped so subsequent probes see the truth, and
// the caller falls back to the origin for the remainder.
func (c *Cache) Open(key wire.ContentDigest, r wire.ByteRange) (*Reader, error) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil || r.Len <= 0 || coverFrom(e.spans, r.Off) < r.End() {
		c.stats.Misses++
		addCounter(c.misses, 1)
		c.mu.Unlock()
		return nil, ErrMiss
	}
	var parts []spanPart
	for _, sp := range e.spans {
		if sp.end() <= r.Off || sp.off >= r.End() {
			continue
		}
		skip := max(r.Off-sp.off, 0)
		parts = append(parts, spanPart{
			sp:     sp,
			blocks: sp.blocks,
			path:   sp.path,
			skip:   skip,
			take:   min(sp.end(), r.End()) - (sp.off + skip),
		})
		c.lru.MoveToFront(sp.el)
	}
	c.stats.Hits++
	addCounter(c.hits, 1)
	c.mu.Unlock()
	return &Reader{c: c, parts: parts}, nil
}

// spanPart is one span's contribution to an open range read, with the
// backing storage captured at Open time: memory frames stay readable
// even if the span is evicted mid-read, while a concurrently evicted
// disk span surfaces as a read error and the caller falls back.
type spanPart struct {
	sp     *span
	blocks [][]byte
	path   string
	skip   int64 // payload bytes to discard at the front
	take   int64 // payload bytes to yield
}

// Reader streams a held range out of the cache block by block, each a
// [len|crc|payload] frame as the cache stores it. Next is what a depot
// serves a checksummed session from: the block lands in the caller's
// buffer verified and ready to send. Read serves the payload alone.
//
// Close may come from another goroutine — a depot's handler closes the
// reader its pump is still draining once the downstream has died — so mu
// orders the two: Close waits for the block being read, and the read
// after it finds the range at its end.
type Reader struct {
	mu    sync.Mutex
	c     *Cache
	parts []spanPart // the current part first
	scan  *wire.FrameScanner
	file  *os.File // the current part's file; nil when it is in memory
	skip  int64    // payload bytes of the next block the range leaves out
	rem   int64    // payload bytes the current part still owes

	frame  *[]byte // Read's own block buffer, pooled
	pos, n int     // its unread window
}

// Next reads the next block of the range into buf (wire.MaxFrameLen
// bytes), checks its CRC there, and returns the length of the frame buf
// now starts with: the stored block itself, or — for a block the range
// begins or ends inside — the part in range under a header of its own.
func (rr *Reader) Next(buf []byte) (int, error) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return rr.next(buf)
}

func (rr *Reader) next(buf []byte) (int, error) {
	for rr.rem == 0 {
		if rr.scan != nil { // done with the current part
			rr.file.Close()
			rr.file, rr.scan, rr.parts = nil, nil, rr.parts[1:]
		}
		if len(rr.parts) == 0 {
			return 0, io.EOF
		}
		if err := rr.start(rr.parts[0]); err != nil {
			return 0, rr.fail(err)
		}
	}
	n, err := rr.scan.ReadFrame(buf)
	if err == io.EOF || err == nil && int64(n-wire.FrameHeaderLen) <= rr.skip {
		err = fmt.Errorf("%w: cached span shorter than indexed", wire.ErrChecksum)
	}
	if err != nil {
		// A short or corrupt span: drop it so the cache stops advertising
		// bytes it cannot prove.
		return 0, rr.fail(err)
	}
	payload := buf[wire.FrameHeaderLen:n]
	if part := payload[rr.skip:min(int64(len(payload)), rr.skip+rr.rem)]; len(part) < len(payload) {
		n = wire.FrameHeaderLen + copy(payload, part)
		hdr := wire.FrameHeader(buf[wire.FrameHeaderLen:n])
		copy(buf, hdr[:])
	}
	served := int64(n - wire.FrameHeaderLen)
	rr.skip, rr.rem = 0, rr.rem-served
	rr.c.mu.Lock()
	rr.c.stats.BytesServed += served
	rr.c.mu.Unlock()
	addCounter(rr.c.bytesServed, served)
	return n, nil
}

// start positions the scanner at the stored block holding the part's
// first payload byte: blocks are MaxFramePayload apart from the span's
// first byte, in a file as in memory.
func (rr *Reader) start(part spanPart) error {
	first := part.skip / wire.MaxFramePayload
	if part.blocks != nil {
		rr.scan = wire.NewFrameScanner(frames(part.blocks[first:]))
	} else {
		f, err := os.Open(part.path)
		if err == nil {
			_, err = f.Seek(first*wire.MaxFrameLen, io.SeekStart)
		}
		if err != nil {
			return fmt.Errorf("%w: %v", ErrMiss, err)
		}
		rr.file, rr.scan = f, wire.NewFrameScanner(f)
	}
	rr.skip, rr.rem = part.skip%wire.MaxFramePayload, part.take
	return nil
}

// Read implements io.Reader over the range's payload.
func (rr *Reader) Read(p []byte) (int, error) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	for rr.pos >= rr.n {
		if rr.frame == nil {
			rr.frame = bufpool.GetFrame()
		}
		n, err := rr.next(*rr.frame)
		if err != nil {
			return 0, err
		}
		rr.pos, rr.n = wire.FrameHeaderLen, n
	}
	n := copy(p, (*rr.frame)[rr.pos:rr.n])
	rr.pos += n
	return n, nil
}

// frames reads a memory span as the file of a spilled one reads: the
// blocks back to back. The reader consumes a list of its own; the
// blocks are shared with the span and its other readers.
func frames(blocks [][]byte) *net.Buffers {
	b := net.Buffers(append([][]byte(nil), blocks...))
	return &b
}

// fail ends the read on a failed serve and passes its cause on: the span
// being read is dropped and the attempt re-counted as a miss.
func (rr *Reader) fail(err error) error {
	rr.c.mu.Lock()
	if sp := rr.parts[0].sp; sp.el != nil {
		rr.c.evict(sp)
		rr.c.setOccupancy()
	}
	rr.c.stats.Misses++
	rr.c.mu.Unlock()
	addCounter(rr.c.misses, 1)
	rr.release()
	return err
}

// Close releases what the reader holds — an open disk handle, Read's
// block buffer — and leaves it at the end of its range.
func (rr *Reader) Close() error {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	rr.release()
	return nil
}

func (rr *Reader) release() {
	rr.file.Close() // nil while the part is in memory: refuses politely
	bufpool.Put(rr.frame)
	rr.parts, rr.scan, rr.file, rr.rem = nil, nil, nil, 0
	rr.frame, rr.pos, rr.n = nil, 0, 0
}

// Tamper flips one payload byte of the cached frame covering off,
// damaging the stored state the way a decaying disk or memory would.
// The next read of that span fails its CRC check. Returns false when
// no cached span covers off. Test and fault-injection hook.
func (c *Cache) Tamper(key wire.ContentDigest, off int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		return false
	}
	for _, sp := range e.spans {
		if off < sp.off || off >= sp.end() {
			continue
		}
		rel := off - sp.off
		frame, pos := rel/wire.MaxFramePayload, wire.FrameHeaderLen+rel%wire.MaxFramePayload
		if sp.blocks != nil {
			sp.blocks[frame][pos] ^= 0xFF
			c.tampered++
			return true
		}
		pos += frame * (wire.FrameHeaderLen + wire.MaxFramePayload)
		data, err := os.ReadFile(sp.path)
		if err != nil || pos >= int64(len(data)) {
			return false
		}
		data[pos] ^= 0xFF
		if err := os.WriteFile(sp.path, data, 0o644); err != nil {
			return false
		}
		c.tampered++
		return true
	}
	return false
}
