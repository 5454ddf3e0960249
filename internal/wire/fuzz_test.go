package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

// FuzzParseOptions drives every option parser over arbitrary bodies.
// Parsers must never panic; for the canonical encodings (source route,
// multicast tree, route table) a successful parse must re-encode to the
// bytes that were parsed.
func FuzzParseOptions(f *testing.F) {
	f.Add(uint16(OptSourceRoute), []byte{})
	f.Add(uint16(OptSourceRoute), SourceRouteOption([]Endpoint{MustEndpoint("10.0.0.1:1")}).Data)
	f.Add(uint16(2), []byte{0, 0, 0x10, 0}) // a reserved kind
	f.Add(uint16(OptGenerate), GenerateOption(1<<20).Data)
	f.Add(uint16(OptHopIndex), HopIndexOption(3).Data)
	f.Add(uint16(OptResumeOffset), ResumeOffsetOption(12345).Data)
	f.Add(uint16(OptStripeCount), StripeCountOption(4).Data)
	f.Add(uint16(OptStripeIndex), StripeIndexOption(1).Data)
	f.Add(uint16(OptTableEpoch), TableEpochOption(7).Data)
	f.Add(uint16(OptTraceID), TraceIDOption(TraceID{1, 2, 3}).Data)
	f.Add(uint16(OptSessionWeight), SessionWeightOption(2).Data)
	f.Add(uint16(OptSessionWeight), SessionWeightOption(0).Data)
	f.Add(uint16(OptSessionWeight), []byte{0xff})
	f.Add(uint16(OptChunkChecksum), ChunkChecksumOption().Data)
	f.Add(uint16(OptChunkChecksum), []byte{0, 99})
	f.Add(uint16(OptContentDigest), ContentDigestOption(ContentDigest{Size: 1 << 20}).Data)
	f.Add(uint16(OptContentDigest), []byte{1, 2, 3})
	f.Add(uint16(OptCacheLookup), CacheLookupOption(ContentDigest{Size: 1 << 20}).Data)
	f.Add(uint16(OptCacheAdvert), CacheAdvertOption([]ByteRange{{Off: 0, Len: 4096}, {Off: 8192, Len: 100}}).Data)
	f.Add(uint16(OptCacheServe), CacheServeOption(ContentDigest{Size: 1 << 20}, ByteRange{Off: 512, Len: 1024}).Data)
	if rt, err := RouteTableOptions([]RouteEntry{{Dst: MustEndpoint("10.0.0.2:1"), Next: MustEndpoint("10.0.0.3:1")}}); err == nil {
		f.Add(uint16(OptRouteTable), rt[0].Data)
	}
	if mt, err := MulticastTreeOption(&TreeNode{
		Addr:     MustEndpoint("10.0.0.1:1"),
		Children: []*TreeNode{{Addr: MustEndpoint("10.0.0.2:2")}},
	}); err == nil {
		f.Add(uint16(OptMulticastTree), mt.Data)
	}
	f.Add(uint16(999), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})

	f.Fuzz(func(t *testing.T, kind uint16, data []byte) {
		o := Option{Kind: kind, Data: data}

		if hops, err := ParseSourceRoute(o); err == nil {
			if re := SourceRouteOption(hops); !bytes.Equal(re.Data, data) {
				t.Errorf("source route round-trip mismatch: %x != %x", re.Data, data)
			}
		}
		if root, err := ParseMulticastTree(o); err == nil {
			re, err := MulticastTreeOption(root)
			if err != nil {
				t.Errorf("re-encoding parsed multicast tree: %v", err)
			} else if !bytes.Equal(re.Data, data) {
				t.Errorf("multicast tree round-trip mismatch: %x != %x", re.Data, data)
			}
		}
		if entries, err := ParseRouteTable(o); err == nil && len(entries) <= maxRouteEntriesPerOption {
			re, err := RouteTableOptions(entries)
			if err != nil {
				t.Errorf("re-encoding parsed route table: %v", err)
			} else {
				// ParseRouteTable accepts any order; re-encoding sorts, so
				// compare entry sets by re-parsing.
				back, err := ParseRouteTable(re[0])
				if err != nil || len(back) != len(entries) {
					t.Errorf("route table round-trip lost entries: %d != %d (%v)", len(back), len(entries), err)
				}
			}
		}
		// The scalar parsers must simply not panic and must reject
		// wrong-kind or wrong-length bodies without bogus success.
		_, _ = ParseGenerate(o)
		_, _ = ParseFetchID(o)
		_, _ = ParseHopIndex(o)
		_, _ = ParseResumeOffset(o)
		_, _ = ParseStripeCount(o)
		_, _ = ParseStripeIndex(o)
		_, _ = ParseTableEpoch(o)
		_, _ = ParseTraceID(o)
		_, _ = ParseChunkChecksum(o)
		_, _ = ParseContentDigest(o)
		_, _ = ParseCacheLookup(o)
		_, _, _ = ParseCacheServe(o)
		if rs, err := ParseCacheAdvert(o); err == nil {
			if re := CacheAdvertOption(rs); !bytes.Equal(re.Data, data) {
				t.Errorf("cache advert round-trip mismatch: %x != %x", re.Data, data)
			}
		}
		if w, err := ParseSessionWeight(o); err == nil {
			if re := SessionWeightOption(w); !bytes.Equal(re.Data, data) {
				t.Errorf("session weight round-trip mismatch: %x != %x", re.Data, data)
			}
		}

		// The nil-safe header accessors must degrade, never panic.
		h := &Header{Options: []Option{o}}
		_ = h.StripeCount()
		_ = h.StripeIndex()
		_ = h.ResumeOffset()
		_ = h.HopIndex()
		_ = h.TableEpoch()
		_, _ = h.TraceID()
		_ = h.Checksummed()
		_, _ = h.ContentDigest()
		_, _ = h.CacheLookup()
		_, _ = h.CacheAdvert()
		_, _, _ = h.CacheServe()
		_ = h.CacheLookups()
		if w := h.SessionWeight(); w < 1 {
			t.Errorf("SessionWeight() = %d, must never drop below 1", w)
		}
	})
}

// refFrames is the byte-at-a-time reference the in-place scanner is
// held to: it walks a frame stream one byte per step, keeps nothing
// but the verified payload, and reports how a stream ends in the
// scanner's own words — class, frame number and payload offset.
func refFrames(data []byte) (payload []byte, frames int, err error) {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	for {
		var hdr [FrameHeaderLen]byte
		for i := range hdr {
			b, ok := next()
			if !ok && i == 0 {
				return payload, frames, nil
			}
			if !ok {
				return payload, frames, fmt.Errorf("wire: torn frame header: %w", io.ErrUnexpectedEOF)
			}
			hdr[i] = b
		}
		length := uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3])
		if length == 0 || length > MaxFramePayload {
			return payload, frames, fmt.Errorf("%w: frame %d at offset %d: length %d out of range",
				ErrChecksum, frames, len(payload), length)
		}
		crc := ^uint32(0)
		body := make([]byte, 0, length)
		for i := uint32(0); i < length; i++ {
			b, ok := next()
			if !ok {
				return payload, frames, fmt.Errorf("wire: torn frame payload: %w", io.ErrUnexpectedEOF)
			}
			crc = crcTable[byte(crc)^b] ^ crc>>8
			body = append(body, b)
		}
		if want := uint32(hdr[4])<<24 | uint32(hdr[5])<<16 | uint32(hdr[6])<<8 | uint32(hdr[7]); ^crc != want {
			return payload, frames, fmt.Errorf("%w: frame %d at offset %d", ErrChecksum, frames, len(payload))
		}
		payload = append(payload, body...)
		frames++
	}
}

// FuzzChunkFrames feeds arbitrary bytes to the in-place frame scanner,
// cut into reads of a fuzzed size, as a differential against refFrames:
// the same verified payload, the same frames — each returned exactly as
// it lay in the input —, the same error class (ErrChecksum for a bad
// length or CRC, io.ErrUnexpectedEOF for a tear) with the same frame and
// offset in its message, never a panic, and never a byte written past
// the frame's own FrameHeaderLen + length of the buffer. The two readers
// built on the scanner must yield that payload and that encoded prefix,
// and what FrameReader accepts must survive a FrameWriter round trip.
func FuzzChunkFrames(f *testing.F) {
	var framed bytes.Buffer
	fw := NewFrameWriter(&framed)
	if _, err := fw.Write([]byte("the quick brown fox")); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes(), uint16(0))
	f.Add([]byte{}, uint16(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint16(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4}, uint16(0))
	f.Add(framed.Bytes()[:framed.Len()-4], uint16(5)) // torn payload
	f.Add(append(framed.Bytes(), 0, 0, 0), uint16(2)) // torn header after a clean frame
	// A valid frame with its payload flipped: CRC must catch it.
	bad := append([]byte(nil), framed.Bytes()...)
	bad[FrameHeaderLen] ^= 0xFF
	f.Add(append(framed.Bytes(), bad...), uint16(7))

	f.Fuzz(func(t *testing.T, data []byte, piece uint16) {
		wantPayload, wantFrames, wantErr := refFrames(data)

		// The buffer is longer than any frame and painted, so a write past
		// the frame shows.
		const guard = 64
		buf := make([]byte, MaxFrameLen+guard)
		var r io.Reader = bytes.NewReader(data)
		if piece > 0 {
			r = &pieceReader{r: r, piece: int(piece)}
		}
		scan := NewFrameScanner(r)
		var gotPayload []byte
		var gotErr error
		at := 0
		for frames := 0; ; frames++ {
			for i := range buf {
				buf[i] = 0xA5
			}
			n, err := scan.ReadFrame(buf[:MaxFrameLen])
			if err != nil {
				if err != io.EOF {
					gotErr = err
				}
				if n != 0 {
					t.Fatalf("ReadFrame returned n=%d with %v", n, err)
				}
				if frames != wantFrames {
					t.Fatalf("scanner verified %d frames, reference %d", frames, wantFrames)
				}
				break
			}
			if !bytes.Equal(buf[:n], data[at:at+n]) {
				t.Fatalf("frame %d does not lie in the buffer as it lay in the stream", frames)
			}
			for i := n; i < len(buf); i++ {
				if buf[i] != 0xA5 {
					t.Fatalf("frame %d of %d encoded bytes: buffer written at %d", frames, n, i)
				}
			}
			gotPayload = append(gotPayload, buf[FrameHeaderLen:n]...)
			at += n
		}
		if !bytes.Equal(gotPayload, wantPayload) {
			t.Fatalf("scanner payload %d bytes, reference %d", len(gotPayload), len(wantPayload))
		}
		switch {
		case (gotErr == nil) != (wantErr == nil),
			errors.Is(gotErr, ErrChecksum) != errors.Is(wantErr, ErrChecksum),
			errors.Is(gotErr, io.ErrUnexpectedEOF) != errors.Is(wantErr, io.ErrUnexpectedEOF):
			t.Fatalf("scanner ended with %v, reference with %v", gotErr, wantErr)
		case gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("scanner said %q, reference %q", gotErr, wantErr)
		}

		raw, err := readAll(NewFrameReader(bytes.NewReader(data)))
		if !bytes.Equal(raw, wantPayload) || (err == nil) != (wantErr == nil) {
			t.Fatalf("FrameReader: %d bytes, %v; reference %d bytes, %v", len(raw), err, len(wantPayload), wantErr)
		}
		if err == nil {
			// Whatever the reader accepted must round-trip: re-framing
			// the payload and stripping it again is the identity.
			var re bytes.Buffer
			if _, werr := NewFrameWriter(&re).Write(raw); werr != nil {
				t.Fatalf("re-framing accepted payload: %v", werr)
			}
			back, rerr := readAll(NewFrameReader(bytes.NewReader(re.Bytes())))
			if rerr != nil || !bytes.Equal(back, raw) {
				t.Errorf("frame round-trip mismatch (%v)", rerr)
			}
		}
		// The verifying (pass-through) reader yields the frames it
		// verified, as they came.
		if passed, _ := readAll(NewVerifyingReader(bytes.NewReader(data))); !bytes.Equal(passed, data[:at]) {
			t.Errorf("verifier yielded %d bytes, the verified prefix is %d", len(passed), at)
		}
	})
}

// pieceReader yields at most piece bytes per Read: a transport that
// cuts the stream anywhere.
type pieceReader struct {
	r     io.Reader
	piece int
}

func (p *pieceReader) Read(b []byte) (int, error) {
	return p.r.Read(b[:min(len(b), p.piece)])
}

// readAll drains r, returning what arrived before the first error and
// that error (nil on clean EOF).
func readAll(r io.Reader) ([]byte, error) {
	var out bytes.Buffer
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		out.Write(buf[:n])
		if errors.Is(err, io.EOF) {
			return out.Bytes(), nil
		}
		if err != nil {
			return out.Bytes(), err
		}
	}
}

// FuzzCacheOptions concentrates on the three cache wire options, with
// a seed corpus of the malformations a depot actually meets: truncated
// advertisements, overlapping and unsorted ranges, zero-length ranges,
// and serve directives that overrun the digested object. A parser may
// reject or accept, but an accepted advertisement must be canonical
// (sorted, non-overlapping, round-trips byte-for-byte) and an accepted
// serve range must lie inside its object.
func FuzzCacheOptions(f *testing.F) {
	d := ContentDigest{Size: 1 << 20}
	for i := range d.Sum {
		d.Sum[i] = byte(i)
	}
	full := CacheAdvertOption([]ByteRange{{Off: 0, Len: 4096}, {Off: 8192, Len: 1 << 16}}).Data
	f.Add(uint16(OptCacheLookup), CacheLookupOption(d).Data)
	f.Add(uint16(OptCacheLookup), CacheLookupOption(d).Data[:39])
	f.Add(uint16(OptCacheAdvert), []byte{})
	f.Add(uint16(OptCacheAdvert), full)
	f.Add(uint16(OptCacheAdvert), full[:len(full)-3])                          // truncated mid-range
	f.Add(uint16(OptCacheAdvert), full[:cacheRangeLen+7])                      // truncated second range
	f.Add(uint16(OptCacheAdvert), append(full[:len(full):len(full)], full...)) // duplicated -> overlapping
	overlap := CacheAdvertOption([]ByteRange{{Off: 0, Len: 4096}}).Data
	overlap = append(overlap, CacheAdvertOption([]ByteRange{{Off: 2048, Len: 4096}}).Data...)
	f.Add(uint16(OptCacheAdvert), overlap) // second range starts inside the first
	unsorted := CacheAdvertOption([]ByteRange{{Off: 8192, Len: 100}}).Data
	unsorted = append(unsorted, CacheAdvertOption([]ByteRange{{Off: 0, Len: 100}}).Data...)
	f.Add(uint16(OptCacheAdvert), unsorted)
	zero := CacheAdvertOption([]ByteRange{{Off: 4096, Len: 0}}).Data
	f.Add(uint16(OptCacheAdvert), zero)
	f.Add(uint16(OptCacheServe), CacheServeOption(d, ByteRange{Off: 0, Len: 1 << 20}).Data)
	f.Add(uint16(OptCacheServe), CacheServeOption(d, ByteRange{Off: 1 << 19, Len: 1 << 20}).Data) // overruns object
	f.Add(uint16(OptCacheServe), CacheServeOption(d, ByteRange{Off: 0, Len: 1}).Data[:40])

	f.Fuzz(func(t *testing.T, kind uint16, data []byte) {
		o := Option{Kind: kind, Data: data}
		if rs, err := ParseCacheAdvert(o); err == nil {
			var prevEnd int64
			for _, r := range rs {
				if r.Len <= 0 || r.Off < prevEnd {
					t.Fatalf("accepted non-canonical advert range %+v (prev end %d)", r, prevEnd)
				}
				prevEnd = r.End()
			}
			if re := CacheAdvertOption(rs); !bytes.Equal(re.Data, data) {
				t.Errorf("cache advert round-trip mismatch: %x != %x", re.Data, data)
			}
		}
		if got, r, err := ParseCacheServe(o); err == nil {
			if r.Len <= 0 || r.Off < 0 || r.End() > got.Size {
				t.Fatalf("accepted serve range %+v outside object of %d bytes", r, got.Size)
			}
		}
		if got, err := ParseCacheLookup(o); err == nil {
			if re := CacheLookupOption(got); !bytes.Equal(re.Data, data) {
				t.Errorf("cache lookup round-trip mismatch: %x != %x", re.Data, data)
			}
		}
		// Accessors degrade, never panic, on whatever the parsers reject.
		h := &Header{Options: []Option{o}}
		_, _ = h.CacheLookup()
		_, _ = h.CacheAdvert()
		_, _, _ = h.CacheServe()
	})
}

// FuzzReadHeader feeds arbitrary bytes to the header decoder: it must
// never panic, and any header it accepts must re-marshal successfully.
func FuzzReadHeader(f *testing.F) {
	h := &Header{
		Version: Version1,
		Type:    TypeData,
		Src:     MustEndpoint("10.0.0.1:7411"),
		Dst:     MustEndpoint("10.0.0.9:7411"),
		Options: []Option{HopIndexOption(1), {Kind: 2, Data: []byte{0, 0, 0x10, 0}}},
	}
	buf, err := h.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf)
	f.Add([]byte{})
	f.Add(make([]byte, HeaderFixedLen))

	f.Fuzz(func(t *testing.T, data []byte) {
		var got Header
		if err := got.UnmarshalBinary(data); err != nil {
			return
		}
		if _, err := got.MarshalBinary(); err != nil {
			t.Errorf("accepted header failed to re-marshal: %v", err)
		}
		if _, err := ReadHeader(bytes.NewReader(data)); err != nil {
			// ReadHeader may legitimately reject what UnmarshalBinary
			// accepted only if the stream framing differs; it must not
			// panic, which reaching here proves.
			_ = err
		}
	})
}

// FuzzPathOptions concentrates on the multipath wire option, with a
// seed corpus of the malformations a depot actually meets: zero path
// counts, indices at or beyond the count, and the reserved kind 19 (a
// set id once). A parser may reject or accept; an accepted body must
// round-trip byte-for-byte and satisfy index < count, and whatever the
// parser decides, the header accessors must degrade malformed bodies
// to single-path (count 1, index 0) rather than panic.
func FuzzPathOptions(f *testing.F) {
	var id SessionID
	for i := range id {
		id[i] = byte(i * 7)
	}
	f.Add(uint16(19), id[:])
	f.Add(uint16(19), id[:15])
	f.Add(uint16(19), append(id[:], 0xff))
	f.Add(uint16(19), []byte{})
	f.Add(uint16(OptPathIndex), PathIndexOption(0, 1).Data)
	f.Add(uint16(OptPathIndex), PathIndexOption(3, 4).Data)
	f.Add(uint16(OptPathIndex), PathIndexOption(0, 0).Data)            // zero count
	f.Add(uint16(OptPathIndex), PathIndexOption(4, 4).Data)            // index == count
	f.Add(uint16(OptPathIndex), PathIndexOption(9, 2).Data)            // index > count
	f.Add(uint16(OptPathIndex), PathIndexOption(1, 2).Data[:3])        // truncated
	f.Add(uint16(OptPathIndex), append(PathIndexOption(1, 2).Data, 0)) // oversized

	f.Fuzz(func(t *testing.T, kind uint16, data []byte) {
		o := Option{Kind: kind, Data: data}
		if i, n, err := ParsePathIndex(o); err == nil {
			if n == 0 || i >= n {
				t.Fatalf("accepted path coordinate %d/%d", i, n)
			}
			if !bytes.Equal(PathIndexOption(i, n).Data, data) {
				t.Errorf("path index round-trip mismatch: %x", data)
			}
		}
		h := Header{Version: Version1, Type: TypeData, Options: []Option{o}}
		raw, err := h.MarshalBinary()
		if err != nil {
			return // oversized option bodies may exceed the header cap
		}
		var back Header
		if err := back.UnmarshalBinary(raw); err != nil {
			t.Fatalf("re-read of marshalled header: %v", err)
		}
		// Accessors never panic and degrade malformed to single-path.
		if n := back.PathCount(); n < 1 {
			t.Fatalf("PathCount = %d", n)
		}
		if i := back.PathIndex(); i < 0 || (i != 0 && i >= back.PathCount()) {
			t.Fatalf("PathIndex = %d of %d", i, back.PathCount())
		}
	})
}
