package cache

import (
	"crypto/sha256"
	"errors"
	"hash"
	"slices"

	"github.com/netlogistics/lsl/internal/wire"
)

// errOverflow reports payload written past the end of a fill's range.
var errOverflow = errors.New("cache: payload exceeds the range being filled")

// Fill is one population of a byte range in progress: Begin, Write the
// payload as it arrives, Commit, Settle. Write copies payload straight
// into the span's stored form — one [len|crc|payload] block per frame,
// allocated when the payload reaches it, its header stamped when it
// fills — so no payload byte is copied, summed or hashed twice on its
// way into the cache, and nothing is re-copied as the span grows. A
// fill belongs to one goroutine and touches the cache only from Commit
// on; one that is abandoned leaves no trace.
type Fill struct {
	c      *Cache
	key    wire.ContentDigest
	off    int64     // object offset of the first payload byte
	max    int64     // payload bytes the range has room for
	n      int64     // payload bytes written
	blocks [][]byte  // one stored frame each; only the last can be open (header unstamped)
	room   int       // payload bytes the last block still has room for
	sum    hash.Hash // running SHA-256, kept while the fill can still be the whole object

	indexed bool // Commit stored something: there is something to settle
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
			f.blocks = append(f.blocks, make([]byte, wire.FrameHeaderLen, wire.FrameHeaderLen+f.room))
		}
		last := len(f.blocks) - 1
		take := min(len(rest), f.room)
		f.blocks[last] = append(f.blocks[last], rest[:take]...)
		if f.room -= take; f.room == 0 {
			stamp(f.blocks[last])
		}
		f.n += int64(take)
		rest = rest[take:]
	}
	return len(p), nil
}

// WriteFrame appends the payload of frame, one whole [len|crc|payload]
// frame the caller has just verified. A frame that is the very block
// the fill would build next is stored as it stands, under the CRC that
// was just proven: copied once, not summed again.
func (f *Fill) WriteFrame(frame []byte) (int, error) {
	payload := frame[wire.FrameHeaderLen:]
	if f.room != 0 || int64(len(payload)) != min(f.max-f.n, wire.MaxFramePayload) {
		return f.Write(payload)
	}
	if f.sum != nil {
		f.sum.Write(payload)
	}
	f.blocks = append(f.blocks, append(make([]byte, 0, len(frame)), frame...))
	f.n += int64(len(payload))
	return len(payload), nil
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
	stamp(block)
	f.blocks[last], f.room = block, 0
}

// stamp writes a full block's [len|crc] header in front of its payload.
func stamp(block []byte) {
	hdr := wire.FrameHeader(block[wire.FrameHeaderLen:])
	copy(block, hdr[:])
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
		payload := f.blocks[i][wire.FrameHeaderLen:]
		lo := at - i*wire.MaxFramePayload
		hi := min(end-i*wire.MaxFramePayload, int64(len(payload)))
		g.Write(payload[lo:hi]) // cannot overflow: r lies inside f
		at += hi - lo
	}
	g.seal()
	return g
}

// Partial tells the fill that its writer will stop short of the range
// — a multipath session is promised the rest of the object and sends
// one claimed piece of it — so it cannot turn out to be the whole
// object and need not carry the object's hash.
func (f *Fill) Partial() { f.sum = nil }

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
	// Re-framing copies, so the lock is let go for it: the parts are cut
	// for the gaps as they stood, and cut again if they moved meanwhile.
	var gaps []wire.ByteRange
	var cut, parts []*Fill
	for parts == nil {
		var spans []*span
		if e := c.entries[f.key]; e != nil {
			spans = e.spans
		}
		now := uncovered(spans, whole.Off, whole.End())
		switch {
		case len(now) == 0:
			return nil
		case now[0] == whole:
			parts = []*Fill{f}
		case slices.Equal(now, gaps):
			parts = cut
		default:
			c.mu.Unlock()
			gaps, cut = now, make([]*Fill, len(now))
			for i, gap := range gaps {
				cut[i] = f.slice(gap)
			}
			c.mu.Lock()
		}
	}
	e := c.entries[f.key]
	if e == nil {
		e = &entry{}
		c.entries[f.key] = e
	}
	for _, part := range parts {
		sp := &span{key: f.key, off: part.off, length: part.n, framed: part.framed(), blocks: part.blocks}
		sp.el = c.lru.PushFront(sp)
		c.memUsed += sp.framed
		e.spans = insertSpan(e.spans, sp)
	}
	c.setOccupancy()
	f.indexed = true
	if f.sum != nil && f.n == f.key.Size && len(e.spans) == 1 {
		// The entry is this fill and nothing else.
		var sum [wire.DigestLen]byte
		f.sum.Sum(sum[:0])
		c.verifyComplete(f.key, e, sum, true)
	}
	return nil
}

// Settle finishes what a Commit that indexed something left: it
// restores the tier budgets (memory overflow spills the coldest spans
// to disk, disk overflow evicts) and, when the object is now fully
// covered but not yet proven, re-reads and hashes it. Both can take
// milliseconds and neither is anything a sink should wait for — this
// session's or, for the hash, another's: the spans are hashed as they
// stand, with the cache unlocked, and the result counts only if they
// still stand so afterwards. (A spill is written under the lock; it
// happens only once the memory budget has overflowed.)
func (f *Fill) Settle() {
	if !f.indexed {
		return
	}
	c := f.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rebalance()
	c.setOccupancy()
	e := c.entries[f.key]
	if e == nil || e.complete || !coversAll(e.spans, f.key.Size) {
		return
	}
	spans := slices.Clone(e.spans)
	stored := snapshot(spans)
	c.mu.Unlock()
	sum, ok := hashSpans(stored)
	c.mu.Lock()
	if c.entries[f.key] == e && slices.Equal(e.spans, spans) {
		c.verifyComplete(f.key, e, sum, ok)
	}
	// Otherwise a span went meanwhile: the object is no longer covered,
	// and whoever covers it again settles it.
}
