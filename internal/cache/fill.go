package cache

import (
	"crypto/sha256"
	"errors"
	"hash"

	"github.com/netlogistics/lsl/internal/wire"
)

// errOverflow reports payload written past the end of a fill's range.
var errOverflow = errors.New("cache: payload exceeds the range being filled")

// Fill is one population of a byte range in progress: Begin, Write the
// payload as it arrives, Commit, Settle. Write copies payload straight
// into the span's stored form — one block per frame, allocated when the
// payload reaches it, its header stamped when it fills — so no payload
// byte is copied, summed or hashed twice on its way into the cache, and
// nothing is re-copied as the span grows. A fill belongs to one
// goroutine and touches the cache only from Commit on; one that is
// abandoned leaves no trace.
type Fill struct {
	c      *Cache
	key    wire.ContentDigest
	off    int64 // object offset of the first payload byte
	max    int64 // payload bytes the range has room for
	n      int64 // payload bytes written
	blocks [][]byte
	hdrs   []frameHeader // of the blocks that are full; at most the last is not
	room   int           // payload bytes the last block still has room for
	sum    hash.Hash     // running SHA-256, kept while the fill can still be the whole object
}

// Begin starts filling r of the object. It returns nil when there is
// nothing to fill: the range is already contiguously held, or is not a
// range of the object.
func (c *Cache) Begin(key wire.ContentDigest, r wire.ByteRange) *Fill {
	if r.Len <= 0 || r.Off < 0 || r.End() > key.Size {
		return nil
	}
	c.mu.Lock()
	e := c.entries[key]
	held := e != nil && coverFrom(e.spans, r.Off) >= r.End()
	c.mu.Unlock()
	if held {
		return nil
	}
	f := &Fill{c: c, key: key, off: r.Off, max: r.Len}
	if r.Off == 0 && r.Len == key.Size {
		f.sum = sha256.New()
	}
	return f
}

// Write appends payload to the range. It fails, storing nothing of p,
// only when p would run past the end of the range.
func (f *Fill) Write(p []byte) (int, error) {
	if int64(len(p)) > f.max-f.n {
		return 0, errOverflow
	}
	if f.sum != nil {
		f.sum.Write(p)
	}
	for rest := p; len(rest) > 0; {
		if f.room == 0 {
			f.room = int(min(f.max-f.n, wire.MaxFramePayload))
			f.blocks = append(f.blocks, make([]byte, 0, f.room))
		}
		last := len(f.blocks) - 1
		take := min(len(rest), f.room)
		f.blocks[last] = append(f.blocks[last], rest[:take]...)
		if f.room -= take; f.room == 0 {
			f.hdrs = append(f.hdrs, wire.FrameHeader(f.blocks[last]))
		}
		f.n += int64(take)
		rest = rest[take:]
	}
	return len(p), nil
}

// Truncate forgets the payload written beyond the first n bytes — what
// a session that failed mid-frame does with the bytes it cannot vouch
// for.
func (f *Fill) Truncate(n int64) {
	if n < 0 || n >= f.n {
		return
	}
	full, tail := int(n/wire.MaxFramePayload), int(n%wire.MaxFramePayload)
	f.hdrs, f.room = f.hdrs[:full], 0
	if tail != 0 {
		// The cut block stays, open again.
		f.blocks[full] = f.blocks[full][:tail]
		f.room = cap(f.blocks[full]) - tail
		full++
	}
	f.blocks = f.blocks[:full]
	f.n = n
	f.sum = nil // a shortened fill is never the whole object
}

// seal closes the last block of a fill that ended short of its range:
// the block is cut to the payload it holds, so a span occupies what
// its framed size says it does, and its header stamped. Nothing is
// written after.
func (f *Fill) seal() {
	if f.room == 0 {
		return
	}
	last := len(f.blocks) - 1
	block := make([]byte, len(f.blocks[last]))
	copy(block, f.blocks[last])
	f.blocks[last], f.room = block, 0
	f.hdrs = append(f.hdrs, wire.FrameHeader(block))
}

// framed is the stored size of the fill: payload plus frame headers.
func (f *Fill) framed() int64 {
	return f.n + int64(len(f.blocks))*wire.FrameHeaderLen
}

// slice re-frames the part r of the fill's payload as a fill of its
// own: stored frames count from their span's first byte, so a part
// that starts elsewhere cannot share them.
func (f *Fill) slice(r wire.ByteRange) *Fill {
	g := &Fill{off: r.Off, max: r.Len} // never committed: its blocks are taken
	for at, end := r.Off-f.off, r.End()-f.off; at < end; {
		i := at / wire.MaxFramePayload
		lo := at - i*wire.MaxFramePayload
		hi := min(end-i*wire.MaxFramePayload, int64(len(f.blocks[i])))
		g.Write(f.blocks[i][lo:hi]) // cannot overflow: r lies inside f
		at += hi - lo
	}
	g.seal()
	return g
}

// Commit indexes what was written as the bytes of the object at the
// fill's offset: from its return the range is held — probed, served,
// no longer filled by others. It does no more than that, in memory, so
// a depot can afford it before it lets the sink see the end of the
// session; Settle does the rest. A range nothing else covered in the
// meantime becomes one span as it stands; otherwise only the parts
// still missing are stored, re-framed (entries are immutable, so the
// bytes already held cannot differ unless something upstream is broken
// — and full coverage proves the whole object against the digest
// either way). The new spans become the most recently used. A fill too
// large for every configured tier is rejected.
//
// An entry is complete — advertised, served whole — only once a
// SHA-256 over exactly its stored bytes has matched the key, and is
// dropped when it does not. A fill that alone is the whole object
// carries that hash, kept running by Write, and is settled here; an
// object completed by accretion is re-read by Settle.
func (f *Fill) Commit() error {
	f.seal()
	if f.n == 0 {
		return nil
	}
	c := f.c
	if !c.Fits(f.n) {
		return errTooLarge
	}
	whole := wire.ByteRange{Off: f.off, Len: f.n}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[f.key]
	if e == nil {
		e = &entry{}
	}
	gaps := uncovered(e.spans, whole.Off, whole.End())
	for _, gap := range gaps {
		part := f
		if gap != whole {
			part = f.slice(gap)
		}
		sp := &span{key: f.key, off: part.off, length: part.n, framed: part.framed(), blocks: part.blocks, hdrs: part.hdrs}
		sp.el = c.lru.PushFront(sp)
		c.memUsed += sp.framed
		e.spans = insertSpan(e.spans, sp)
		c.entries[f.key] = e
	}
	c.setOccupancy()
	if f.sum != nil && f.n == f.key.Size && len(gaps) == 1 && gaps[0] == whole {
		// The entry is this fill and nothing else.
		var sum [wire.DigestLen]byte
		f.sum.Sum(sum[:0])
		c.verifyComplete(f.key, e, &sum)
	}
	return nil
}

// Settle finishes what Commit left: it restores the tier budgets
// (memory overflow spills the coldest spans to disk, disk overflow
// evicts) and, when the object is now fully covered but not yet
// proven, re-reads and hashes it. Both can take milliseconds and
// neither is anything a sink should wait for.
func (f *Fill) Settle() {
	c := f.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rebalance()
	c.setOccupancy()
	if e := c.entries[f.key]; e != nil && !e.complete && coversAll(e.spans, f.key.Size) {
		c.verifyComplete(f.key, e, nil)
	}
}
