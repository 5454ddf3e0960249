package wire

import (
	"encoding/binary"
	"fmt"
)

// Cache session types. A cache probe is a request/response exchange
// with a single depot (like TypeFetch); a cache serve asks a depot to
// push a byte range it holds toward the session's destination (like
// TypeGenerate, but sourced from the depot's content-addressed cache
// instead of the pattern generator).
const (
	// TypeCacheProbe asks a depot what it holds: with an OptCacheLookup
	// option, the depot answers with a TypeCacheProbe header carrying an
	// OptCacheAdvert of the byte ranges it caches for that digest; with
	// no lookup option, the answer carries one OptCacheLookup per fully
	// held object — the depot's digest inventory. A depot with no cache
	// refuses the probe.
	TypeCacheProbe uint16 = 8
	// TypeCacheServe directs a depot to serve a cached byte range: the
	// header carries an OptCacheServe naming the digest and range, and
	// the depot forwards the bytes toward the header's destination as an
	// ordinary TypeData session resuming at the range's offset. A depot
	// that does not hold the range (or whose cached copy fails its
	// integrity check on read) refuses, and the initiator falls back to
	// an origin send.
	TypeCacheServe uint16 = 9
)

// Cache option kinds.
const (
	// OptCacheLookup names a content digest a cache probe asks about (or,
	// in an inventory response, one the depot fully holds). Body is the
	// content-digest encoding: 8 bytes of size, 32 bytes of SHA-256.
	// Depots that do not understand it forward it untouched.
	OptCacheLookup uint16 = 16
	// OptCacheAdvert is a cache-hit advertisement: the byte ranges of
	// the probed object this depot holds, each encoded as 8 bytes of
	// offset and 8 bytes of length, sorted by offset and non-overlapping.
	// An empty body advertises nothing — a miss.
	OptCacheAdvert uint16 = 17
	// OptCacheServe is the serve-from-cache directive: a content digest
	// (40 bytes) followed by one byte range (16 bytes) the depot must
	// serve from its cache toward the session destination.
	OptCacheServe uint16 = 18
	// OptCacheAt names the one depot that may admit the session's
	// payload to its cache: its 6-byte endpoint, or an empty body for
	// none. Depots forward it untouched. A session without it may be
	// admitted wherever it passes; a malformed body admits nowhere,
	// because a cache is an optimisation and a guessed admission is
	// not one.
	OptCacheAt uint16 = 21
)

// ByteRange is a half-open byte range [Off, Off+Len) of a cached
// object.
type ByteRange struct {
	Off int64
	Len int64
}

// End returns the exclusive end offset of the range.
func (r ByteRange) End() int64 { return r.Off + r.Len }

// maxAdvertRanges bounds one advertisement, defending receivers against
// corrupt counts while leaving room for pathological fragmentation.
const maxAdvertRanges = 1024

// cacheRangeLen is the encoded size of one ByteRange.
const cacheRangeLen = 16

// CacheLookupOption encodes a cache lookup for the given digest. The
// body reuses the content-digest encoding so the two options stay
// parseable by the same amount of code.
func CacheLookupOption(d ContentDigest) Option {
	o := ContentDigestOption(d)
	o.Kind = OptCacheLookup
	return o
}

// ParseCacheLookup decodes a cache-lookup option.
func ParseCacheLookup(o Option) (ContentDigest, error) {
	if o.Kind != OptCacheLookup {
		return ContentDigest{}, fmt.Errorf("%w: bad cache lookup", ErrBadOption)
	}
	return parseDigestBody(o.Data)
}

// parseDigestBody decodes the shared digest encoding (8-byte size +
// 32-byte sum) used by OptContentDigest, OptCacheLookup and the digest
// half of OptCacheServe.
func parseDigestBody(data []byte) (ContentDigest, error) {
	var d ContentDigest
	if len(data) != 8+DigestLen {
		return d, fmt.Errorf("%w: digest body length %d", ErrBadOption, len(data))
	}
	size := binary.BigEndian.Uint64(data)
	if size > 1<<62 {
		return d, fmt.Errorf("%w: digest size %d out of range", ErrBadOption, size)
	}
	d.Size = int64(size)
	copy(d.Sum[:], data[8:])
	return d, nil
}

// CacheAdvertOption encodes a cache-hit advertisement of the held byte
// ranges. The caller must pass ranges sorted by offset and
// non-overlapping (adjacent is fine); an empty slice encodes an empty
// advertisement, the explicit miss.
func CacheAdvertOption(ranges []ByteRange) Option {
	data := make([]byte, 0, len(ranges)*cacheRangeLen)
	var tmp [cacheRangeLen]byte
	for _, r := range ranges {
		binary.BigEndian.PutUint64(tmp[0:8], uint64(r.Off))
		binary.BigEndian.PutUint64(tmp[8:16], uint64(r.Len))
		data = append(data, tmp[:]...)
	}
	return Option{Kind: OptCacheAdvert, Data: data}
}

// ParseCacheAdvert decodes a cache-hit advertisement. The encoded
// ranges must be sorted by offset, non-overlapping, non-empty and
// within the addressable object space; anything else is malformed and
// the caller degrades to "nothing advertised" — a depot must never
// guess at which half of an inconsistent advertisement to believe.
func ParseCacheAdvert(o Option) ([]ByteRange, error) {
	if o.Kind != OptCacheAdvert || len(o.Data)%cacheRangeLen != 0 {
		return nil, fmt.Errorf("%w: bad cache advert", ErrBadOption)
	}
	n := len(o.Data) / cacheRangeLen
	if n > maxAdvertRanges {
		return nil, fmt.Errorf("%w: cache advert carries %d ranges (max %d)", ErrBadOption, n, maxAdvertRanges)
	}
	out := make([]ByteRange, 0, n)
	var prevEnd int64
	for i := 0; i < n; i++ {
		body := o.Data[i*cacheRangeLen:]
		off := binary.BigEndian.Uint64(body[0:8])
		length := binary.BigEndian.Uint64(body[8:16])
		if off > 1<<62 || length == 0 || length > 1<<62 || off+length > 1<<62 {
			return nil, fmt.Errorf("%w: cache advert range out of bounds", ErrBadOption)
		}
		r := ByteRange{Off: int64(off), Len: int64(length)}
		if r.Off < prevEnd {
			return nil, fmt.Errorf("%w: cache advert ranges overlap or unsorted", ErrBadOption)
		}
		prevEnd = r.End()
		out = append(out, r)
	}
	return out, nil
}

// CacheServeOption encodes a serve-from-cache directive for one range
// of the digested object.
func CacheServeOption(d ContentDigest, r ByteRange) Option {
	data := make([]byte, 8+DigestLen+cacheRangeLen)
	binary.BigEndian.PutUint64(data, uint64(d.Size))
	copy(data[8:], d.Sum[:])
	binary.BigEndian.PutUint64(data[8+DigestLen:], uint64(r.Off))
	binary.BigEndian.PutUint64(data[8+DigestLen+8:], uint64(r.Len))
	return Option{Kind: OptCacheServe, Data: data}
}

// ParseCacheServe decodes a serve-from-cache directive. The range must
// be non-empty and lie inside the digested object.
func ParseCacheServe(o Option) (ContentDigest, ByteRange, error) {
	if o.Kind != OptCacheServe || len(o.Data) != 8+DigestLen+cacheRangeLen {
		return ContentDigest{}, ByteRange{}, fmt.Errorf("%w: bad cache serve", ErrBadOption)
	}
	d, err := parseDigestBody(o.Data[:8+DigestLen])
	if err != nil {
		return ContentDigest{}, ByteRange{}, err
	}
	off := binary.BigEndian.Uint64(o.Data[8+DigestLen:])
	length := binary.BigEndian.Uint64(o.Data[8+DigestLen+8:])
	if length == 0 || off > 1<<62 || length > 1<<62 || int64(off)+int64(length) > d.Size {
		return ContentDigest{}, ByteRange{}, fmt.Errorf("%w: cache serve range outside object", ErrBadOption)
	}
	return d, ByteRange{Off: int64(off), Len: int64(length)}, nil
}

// CacheLookup returns the digest a cache probe asks about and whether
// a well-formed lookup option is present. Malformed degrades to absent.
func (h *Header) CacheLookup() (ContentDigest, bool) {
	if opt, ok := h.Option(OptCacheLookup); ok {
		if d, err := ParseCacheLookup(opt); err == nil {
			return d, true
		}
	}
	return ContentDigest{}, false
}

// CacheAdvert returns the advertised held ranges and whether a
// well-formed advertisement is present. An empty advertisement (an
// explicit miss) returns a nil slice and true; a malformed one degrades
// to absent.
func (h *Header) CacheAdvert() ([]ByteRange, bool) {
	if opt, ok := h.Option(OptCacheAdvert); ok {
		if rs, err := ParseCacheAdvert(opt); err == nil {
			return rs, true
		}
	}
	return nil, false
}

// CacheServe returns the serve-from-cache directive and whether a
// well-formed one is present. Malformed degrades to absent — the depot
// refuses rather than serving a guessed range.
func (h *Header) CacheServe() (ContentDigest, ByteRange, bool) {
	if opt, ok := h.Option(OptCacheServe); ok {
		if d, r, err := ParseCacheServe(opt); err == nil {
			return d, r, true
		}
	}
	return ContentDigest{}, ByteRange{}, false
}

// CacheLookups returns every well-formed cache-lookup digest in the
// header, in option order — the decoding side of a digest inventory
// response, which carries one OptCacheLookup per held object. Malformed
// entries are skipped individually.
func (h *Header) CacheLookups() []ContentDigest {
	var out []ContentDigest
	for _, o := range h.Options {
		if o.Kind != OptCacheLookup {
			continue
		}
		if d, err := ParseCacheLookup(o); err == nil {
			out = append(out, d)
		}
	}
	return out
}

// CacheAtOption names the depot at which the session may be cached;
// the zero endpoint names none.
func CacheAtOption(at Endpoint) Option {
	if at.IsZero() {
		return Option{Kind: OptCacheAt, Data: []byte{}}
	}
	return Option{Kind: OptCacheAt, Data: appendEndpoint(nil, at)}
}

// ParseCacheAt decodes a cache-at option: the named depot, or the zero
// endpoint when the body is empty. A 6-byte body naming the zero
// endpoint is malformed: "none" has the one encoding.
func ParseCacheAt(o Option) (Endpoint, error) {
	var at Endpoint
	if o.Kind != OptCacheAt || (len(o.Data) != 0 && len(o.Data) != 6) {
		return at, fmt.Errorf("%w: bad cache-at", ErrBadOption)
	}
	if len(o.Data) == 6 {
		copy(at.IP[:], o.Data)
		at.Port = binary.BigEndian.Uint16(o.Data[4:])
		if at.IsZero() {
			return at, fmt.Errorf("%w: cache-at names the zero endpoint", ErrBadOption)
		}
	}
	return at, nil
}

// CacheAdmits reports whether the depot self may admit the session's
// payload to its cache: always when the header carries no OptCacheAt,
// otherwise only when the option names self.
func (h *Header) CacheAdmits(self Endpoint) bool {
	opt, ok := h.Option(OptCacheAt)
	if !ok {
		return true
	}
	at, err := ParseCacheAt(opt)
	return err == nil && !at.IsZero() && at == self
}
