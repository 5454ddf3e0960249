// Package cache implements the depot-resident content-addressed chunk
// cache (DESIGN.md §15): byte ranges of previously forwarded objects,
// keyed by their end-to-end content digest, so a repeat transfer can be
// served from the nearest depot holding the bytes instead of from the
// origin.
//
// Entries are immutable by construction — the key commits to both the
// object's size and its SHA-256, so a digest can only ever name one
// byte string and there is no invalidation protocol. Ranges accrete
// monotonically as sessions are forwarded, each through a Fill that
// copies, CRCs and hashes the payload once, as it arrives. An entry
// that reaches full coverage is advertised in the depot's digest
// inventory only once a SHA-256 over exactly its stored bytes has
// matched the key — the running hash of a fill that was the whole
// object, or a re-read of the spans of one completed by accretion —
// and is dropped on mismatch.
//
// Storage is two-tiered with a single recency order spanning both
// tiers, mirroring the depot spool LRU: spans live in memory until the
// memory budget overflows, then the coldest spans spill to
// content-addressed files in the cache directory; when the disk budget
// overflows the coldest disk span is evicted outright. Every span is
// stored CRC-framed (the wire chunk framing), in memory and on disk
// alike, and every read checks every block through the wire frame
// scanner — a flipped bit in cached state surfaces as wire.ErrChecksum
// at serve time, the span is dropped, and the transfer falls back to
// the origin. A stored block is a frame: a depot serving a checksummed
// session forwards it as it lies.
package cache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// ErrMiss reports that the cache does not (fully) hold the requested
// range. Serve paths treat it as "go to the origin".
var ErrMiss = errors.New("cache: range not held")

// errTooLarge reports a span that cannot fit either tier's budget.
var errTooLarge = errors.New("cache: span exceeds cache budget")

// Metric names registered by the cache. They carry the depot_ prefix
// because the cache is depot-resident state: one cache per depot, and
// operators alert on them next to the other depot_ series.
const (
	// MetricHits counts serve attempts satisfied from cached state.
	MetricHits = "depot_cache_hits_total"
	// MetricMisses counts serve attempts the cache could not satisfy:
	// range not held, or held bytes that failed their integrity check.
	MetricMisses = "depot_cache_misses_total"
	// MetricEvictions counts spans evicted to stay inside the budgets
	// (integrity drops included).
	MetricEvictions = "depot_cache_evictions_total"
	// MetricBytes counts payload bytes served out of the cache.
	MetricBytes = "depot_cache_bytes_total"
	// MetricOccupancy gauges the bytes currently held across both tiers
	// (framed size, the unit the budgets are expressed in).
	MetricOccupancy = "depot_cache_occupancy_bytes"
)

// Config parameterizes a cache.
type Config struct {
	// MemoryBytes is the memory-tier budget in framed bytes. Required.
	MemoryBytes int64
	// Dir, when set, enables the disk tier: spans displaced from memory
	// spill to CRC-framed files here and are re-indexed on restart.
	Dir string
	// DiskBytes bounds the disk tier. Defaults to 4x MemoryBytes when a
	// Dir is configured.
	DiskBytes int64
	// Metrics receives the depot_cache_* series. Optional.
	Metrics *obs.Registry
}

// Stats is a point-in-time snapshot of cache state and traffic.
type Stats struct {
	Objects     int   // distinct digests with at least one span
	Complete    int   // digests held in full (inventory size)
	MemBytes    int64 // framed bytes resident in memory
	DiskBytes   int64 // framed bytes resident on disk
	Hits        int64
	Misses      int64
	Evictions   int64
	BytesServed int64
	Recovered   int // spans re-indexed from disk at startup
	Dropped     int // damaged files dropped during re-index
}

// span is one cached byte range of one object, stored CRC-framed in
// exactly one tier: [len|crc|payload] frames of MaxFramePayload bytes,
// the last one shorter. A file holds them back to back; memory holds
// the same bytes, a block per frame.
type span struct {
	key    wire.ContentDigest
	off    int64
	length int64    // payload bytes
	framed int64    // stored bytes (payload + frame headers)
	blocks [][]byte // memory tier: the frames; nil when spilled
	path   string   // disk tier; empty while in memory
	el     *list.Element
}

func (s *span) end() int64 { return s.off + s.length }

// entry is every span held for one digest, sorted by offset and
// non-overlapping.
type entry struct {
	spans    []*span
	complete bool // full coverage, whole-object hash verified
}

// Cache is a content-addressed range cache. All methods are safe for
// concurrent use.
type Cache struct {
	memCap  int64
	diskCap int64
	dir     string

	hits, misses, evictions, bytesServed *obs.Counter
	occupancy                            *obs.Gauge

	mu        sync.Mutex
	entries   map[wire.ContentDigest]*entry
	lru       *list.List // of *span; front = most recent
	memUsed   int64
	diskUsed  int64
	stats     Stats
	tampered  int // spans deliberately damaged by Tamper (tests)
	recovered int
	dropped   int
}

// New builds a cache and, when a directory is configured, re-indexes
// whatever spilled spans a previous process left there, dropping
// damaged files. The returned cache is immediately usable.
func New(cfg Config) (*Cache, error) {
	if cfg.MemoryBytes <= 0 {
		return nil, errors.New("cache: MemoryBytes must be positive")
	}
	diskCap := cfg.DiskBytes
	if cfg.Dir != "" && diskCap <= 0 {
		diskCap = 4 * cfg.MemoryBytes
	}
	c := &Cache{
		memCap:  cfg.MemoryBytes,
		diskCap: diskCap,
		dir:     cfg.Dir,
		entries: make(map[wire.ContentDigest]*entry),
		lru:     list.New(),
	}
	if cfg.Metrics != nil {
		c.hits = cfg.Metrics.Counter(MetricHits)
		c.misses = cfg.Metrics.Counter(MetricMisses)
		c.evictions = cfg.Metrics.Counter(MetricEvictions)
		c.bytesServed = cfg.Metrics.Counter(MetricBytes)
		c.occupancy = cfg.Metrics.Gauge(MetricOccupancy)
	}
	if c.dir != "" {
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
		if err := c.recover(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func addCounter(c *obs.Counter, n int64) {
	if c != nil {
		c.Add(n)
	}
}

// setOccupancy must be called with mu held after any size change.
func (c *Cache) setOccupancy() {
	if c.occupancy != nil {
		c.occupancy.Set(c.memUsed + c.diskUsed)
	}
}

// Put stores data as the object's bytes at [off, off+len(data)): a
// fill of that range begun, written, committed and settled in one call.
func (c *Cache) Put(key wire.ContentDigest, off int64, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if off < 0 || off+int64(len(data)) > key.Size {
		return fmt.Errorf("cache: put [%d,%d) outside object of %d bytes", off, off+int64(len(data)), key.Size)
	}
	f := c.Begin(key, wire.ByteRange{Off: off, Len: int64(len(data))})
	if f == nil {
		return nil // already held
	}
	f.Write(data) // cannot overflow: the range is len(data) long
	defer f.Settle()
	return f.Commit()
}

// FrameOverhead returns the framing bytes added to a payload of n
// bytes — useful for sizing cache budgets against object sizes.
func FrameOverhead(n int) int {
	frames := (n + wire.MaxFramePayload - 1) / wire.MaxFramePayload
	if frames == 0 {
		frames = 1
	}
	return frames * wire.FrameHeaderLen
}

// uncovered returns the sub-ranges of [lo, hi) not covered by spans.
func uncovered(spans []*span, lo, hi int64) []wire.ByteRange {
	var out []wire.ByteRange
	at := lo
	for _, sp := range spans {
		if sp.end() <= at {
			continue
		}
		if sp.off >= hi {
			break
		}
		if sp.off > at {
			out = append(out, wire.ByteRange{Off: at, Len: sp.off - at})
		}
		if sp.end() > at {
			at = sp.end()
		}
		if at >= hi {
			return out
		}
	}
	if at < hi {
		out = append(out, wire.ByteRange{Off: at, Len: hi - at})
	}
	return out
}

// insertSpan inserts sp keeping the slice sorted by offset.
func insertSpan(spans []*span, sp *span) []*span {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].off > sp.off })
	spans = append(spans, nil)
	copy(spans[i+1:], spans[i:])
	spans[i] = sp
	return spans
}

// coversAll reports whether spans contiguously cover [0, size).
func coversAll(spans []*span, size int64) bool {
	return coverFrom(spans, 0) >= size
}

// coverFrom returns the furthest offset reachable contiguously from
// `from` through the sorted spans (at least `from` itself).
func coverFrom(spans []*span, from int64) int64 {
	at := from
	for _, sp := range spans {
		if sp.off > at {
			break
		}
		if sp.end() > at {
			at = sp.end()
		}
	}
	return at
}

// verifyComplete marks a fully covered entry advertisable when sum, a
// SHA-256 over its stored bytes, matches the key, and drops it
// wholesale otherwise — as it does when those bytes could not be read
// back intact (ok false). Called with mu held.
func (c *Cache) verifyComplete(key wire.ContentDigest, e *entry, sum [wire.DigestLen]byte, ok bool) {
	if !ok || sum != key.Sum {
		c.dropEntryLocked(key)
		return
	}
	e.complete = true
}

// snapshot captures where each span's bytes are stored, so that they
// can be read with the cache unlocked: memory frames stay readable
// whatever happens to the span meanwhile, a disk span that is evicted
// fails the read. Called with mu held.
func snapshot(spans []*span) []spanPart {
	parts := make([]spanPart, len(spans))
	for i, sp := range spans {
		parts[i] = spanPart{sp: sp, blocks: sp.blocks, path: sp.path, take: sp.length}
	}
	return parts
}

// hashSpans hashes an entry's spans in offset order, CRC-checking
// every frame on the way: memory frames are walked in place, disk
// spans stream through the frame reader. It reports false when a span
// fails its check or the spans are not one contiguous run from offset
// 0.
func hashSpans(parts []spanPart) (sum [wire.DigestLen]byte, ok bool) {
	h := sha256.New()
	at := int64(0)
	for _, part := range parts {
		// Overlap is impossible by construction; adjacency means the
		// payload starts exactly at `at`.
		if part.sp.off != at {
			return sum, false
		}
		n, err := hashSpan(h, part)
		if err != nil || n != part.take {
			return sum, false
		}
		at += n
	}
	h.Sum(sum[:0])
	return sum, true
}

// hashSpan writes one span's CRC-verified payload to h and returns its
// length.
func hashSpan(h io.Writer, part spanPart) (int64, error) {
	if part.blocks == nil {
		f, err := os.Open(part.path)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		return io.Copy(h, wire.NewFrameReader(f))
	}
	var n int64
	for i, block := range part.blocks {
		payload := block[wire.FrameHeaderLen:]
		if hdr := wire.FrameHeader(payload); !bytes.Equal(hdr[:], block[:wire.FrameHeaderLen]) {
			return n, fmt.Errorf("%w: cached frame %d", wire.ErrChecksum, i)
		}
		h.Write(payload)
		n += int64(len(payload))
	}
	return n, nil
}

// rebalance restores the tier budgets: memory overflow spills the
// coldest memory spans to disk (or evicts them when no directory is
// configured), disk overflow evicts the coldest disk spans. Called
// with mu held.
func (c *Cache) rebalance() {
	for c.memUsed > c.memCap {
		sp := c.coldest(true)
		if sp == nil {
			break
		}
		if c.dir == "" || !c.spill(sp) {
			c.evict(sp)
		}
	}
	for c.dir != "" && c.diskUsed > c.diskCap {
		sp := c.coldest(false)
		if sp == nil {
			break
		}
		c.evict(sp)
	}
}

// coldest returns the least recently used span in the requested tier.
func (c *Cache) coldest(memory bool) *span {
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		sp := el.Value.(*span)
		if (sp.blocks != nil) == memory {
			return sp
		}
	}
	return nil
}

// spill moves a memory span to the disk tier (tmp+rename, so restart
// re-indexing never sees a torn file as current). Reports success;
// failure leaves the span in memory and the caller evicts instead.
func (c *Cache) spill(sp *span) bool {
	name := spanFileName(sp.key, sp.off, sp.length)
	path := filepath.Join(c.dir, name)
	tmp, err := os.CreateTemp(c.dir, name+".tmp")
	if err != nil {
		return false
	}
	_, werr := frames(sp.blocks).WriteTo(tmp)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return false
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	c.memUsed -= sp.framed
	c.diskUsed += sp.framed
	sp.blocks = nil
	sp.path = path
	return true
}

// evict removes a span entirely. Called with mu held.
func (c *Cache) evict(sp *span) {
	c.removeSpan(sp)
	c.stats.Evictions++
	addCounter(c.evictions, 1)
}

// removeSpan detaches a span from its entry, the recency list, and its
// tier, without counting an eviction. Called with mu held.
func (c *Cache) removeSpan(sp *span) {
	e := c.entries[sp.key]
	if e != nil {
		for i, s := range e.spans {
			if s == sp {
				e.spans = append(e.spans[:i], e.spans[i+1:]...)
				break
			}
		}
		e.complete = false
		if len(e.spans) == 0 {
			delete(c.entries, sp.key)
		}
	}
	if sp.el != nil {
		c.lru.Remove(sp.el)
		sp.el = nil
	}
	if sp.blocks != nil {
		c.memUsed -= sp.framed
		sp.blocks = nil
	} else if sp.path != "" {
		c.diskUsed -= sp.framed
		os.Remove(sp.path)
		sp.path = ""
	}
}

// dropEntryLocked evicts every span of one digest. Called with mu held.
func (c *Cache) dropEntryLocked(key wire.ContentDigest) {
	e := c.entries[key]
	if e == nil {
		return
	}
	for len(e.spans) > 0 {
		c.evict(e.spans[0])
	}
	c.setOccupancy()
}

// Drop evicts everything held for one digest.
func (c *Cache) Drop(key wire.ContentDigest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropEntryLocked(key)
}

// Ranges returns the held byte ranges for a digest, coalesced and
// sorted — the body of a cache-hit advertisement. A nil return is a
// miss. Probing does not disturb recency and is not counted as a hit
// or miss; only serve attempts are.
func (c *Cache) Ranges(key wire.ContentDigest) []wire.ByteRange {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		return nil
	}
	var out []wire.ByteRange
	for _, sp := range e.spans {
		if n := len(out); n > 0 && out[n-1].End() >= sp.off {
			if sp.end() > out[n-1].End() {
				out[n-1].Len = sp.end() - out[n-1].Off
			}
			continue
		}
		out = append(out, wire.ByteRange{Off: sp.off, Len: sp.length})
	}
	return out
}

// Fits reports whether a range of n payload bytes could ever reside in
// this cache: within the memory budget, or within the disk budget when
// a spill directory is configured. Population paths ask before
// buffering a session's payload, so a cache too small for the object
// costs nothing.
func (c *Cache) Fits(n int64) bool {
	if n <= 0 {
		return false
	}
	frames := (n + int64(wire.MaxFramePayload) - 1) / int64(wire.MaxFramePayload)
	framed := n + frames*int64(wire.FrameHeaderLen)
	return framed <= c.memCap || (c.dir != "" && framed <= c.diskCap)
}

// Keys returns the digests held in full — the depot's advertisable
// inventory — in deterministic (sum) order.
func (c *Cache) Keys() []wire.ContentDigest {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []wire.ContentDigest
	for key, e := range c.entries {
		if e.complete {
			out = append(out, key)
		}
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Sum[:], out[j].Sum[:]) < 0 })
	return out
}

// Stats returns a snapshot of cache state and lifetime traffic.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Objects = len(c.entries)
	for _, e := range c.entries {
		if e.complete {
			s.Complete++
		}
	}
	s.MemBytes = c.memUsed
	s.DiskBytes = c.diskUsed
	s.Recovered = c.recovered
	s.Dropped = c.dropped
	return s
}
