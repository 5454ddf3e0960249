package cache

import (
	"fmt"
	"io"
	"net"
	"os"

	"github.com/netlogistics/lsl/internal/wire"
)

// Open returns a reader over the payload bytes of r, counted as one
// serve attempt: a hit if the range is contiguously held, otherwise
// ErrMiss. The read is lazy and every byte streams back through the
// CRC frame verifier, so corruption of cached state surfaces as
// wire.ErrChecksum partway through the read; the damaged span is
// dropped so subsequent probes see the truth, and the caller falls
// back to the origin for the remainder.
func (c *Cache) Open(key wire.ContentDigest, r wire.ByteRange) (io.ReadCloser, error) {
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
		skip := int64(0)
		if r.Off > sp.off {
			skip = r.Off - sp.off
		}
		take := sp.end()
		if r.End() < take {
			take = r.End()
		}
		parts = append(parts, spanPart{
			sp:     sp,
			blocks: sp.blocks,
			path:   sp.path,
			skip:   skip,
			take:   take - (sp.off + skip),
		})
		c.lru.MoveToFront(sp.el)
	}
	c.stats.Hits++
	addCounter(c.hits, 1)
	c.mu.Unlock()
	return &rangeReader{c: c, key: key, parts: parts}, nil
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

// rangeReader streams a cached range span by span through the CRC
// frame verifier.
type rangeReader struct {
	c       *Cache
	key     wire.ContentDigest
	parts   []spanPart
	cur     io.Reader
	curC    io.Closer
	curPart spanPart
	rem     int64 // bytes left in the current part
}

// Read implements io.Reader.
func (rr *rangeReader) Read(p []byte) (int, error) {
	for rr.rem == 0 {
		if rr.curC != nil {
			rr.curC.Close()
			rr.curC = nil
		}
		if len(rr.parts) == 0 {
			return 0, io.EOF
		}
		part := rr.parts[0]
		rr.parts = rr.parts[1:]
		if err := rr.start(part); err != nil {
			rr.fail(part)
			return 0, err
		}
		rr.curPart = part
		rr.rem = part.take
	}
	if int64(len(p)) > rr.rem {
		p = p[:rr.rem]
	}
	n, err := rr.cur.Read(p)
	rr.rem -= int64(n)
	if n > 0 {
		rr.c.mu.Lock()
		rr.c.stats.BytesServed += int64(n)
		rr.c.mu.Unlock()
		addCounter(rr.c.bytesServed, int64(n))
	}
	if err != nil {
		if err == io.EOF && rr.rem == 0 {
			// Clean span boundary; the next Read advances to the next part.
			return n, nil
		}
		// A short or corrupt span: drop it so the cache stops advertising
		// bytes it cannot prove.
		rr.fail(rr.curPart)
		if err == io.EOF {
			err = fmt.Errorf("%w: cached span shorter than indexed", wire.ErrChecksum)
		}
		return n, err
	}
	return n, nil
}

// start positions a frame reader at the part's first payload byte.
func (rr *rangeReader) start(part spanPart) error {
	var src io.Reader
	switch {
	case part.blocks != nil:
		src = frames(part.blocks)
	case part.path != "":
		f, err := os.Open(part.path)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrMiss, err)
		}
		rr.curC = f
		src = f
	default:
		return ErrMiss
	}
	fr := wire.NewFrameReader(src)
	if part.skip > 0 {
		if _, err := io.CopyN(io.Discard, fr, part.skip); err != nil {
			return err
		}
	}
	rr.cur = fr
	return nil
}

// frames reads a memory span as the file of a spilled one reads: the
// blocks back to back. The reader consumes a list of its own; the
// blocks are shared with the span and its other readers.
func frames(blocks [][]byte) *net.Buffers {
	b := net.Buffers(append([][]byte(nil), blocks...))
	return &b
}

// fail records a failed serve: the offending span (when known) is
// dropped and the attempt is re-counted as a miss, so hit/miss totals
// reflect what was actually served.
func (rr *rangeReader) fail(part spanPart) {
	rr.c.mu.Lock()
	if part.sp != nil && part.sp.el != nil {
		rr.c.evict(part.sp)
		rr.c.setOccupancy()
	}
	rr.c.stats.Misses++
	rr.c.mu.Unlock()
	addCounter(rr.c.misses, 1)
}

// Close releases any open disk handle.
func (rr *rangeReader) Close() error {
	if rr.curC != nil {
		rr.curC.Close()
		rr.curC = nil
	}
	rr.parts = nil
	rr.rem = 0
	return nil
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
