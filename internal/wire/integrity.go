package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ChecksumCRC32C is the only chunk-checksum algorithm defined so far:
// CRC-32C (Castagnoli), the polynomial with hardware support on every
// platform the depots run on. The option carries the algorithm
// explicitly so a future one can be introduced without a version bump.
const ChecksumCRC32C uint16 = 1

// crcTable is the Castagnoli table shared by every frame writer,
// verifier, and reader in the process.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum indicates a chunk frame failed its CRC-32C check (or its
// frame header was structurally invalid). The retry package classifies
// it as transient: the damaged range is re-sent via the resume path.
var ErrChecksum = errors.New("wire: chunk checksum mismatch")

// ErrDigest indicates a delivered payload failed its end-to-end
// SHA-256 content-digest check at the sink. Also transient: the whole
// object is re-sent.
var ErrDigest = errors.New("wire: content digest mismatch")

// ChunkChecksumOption announces CRC-32C chunk framing for the session
// payload.
func ChunkChecksumOption() Option {
	var data [2]byte
	binary.BigEndian.PutUint16(data[:], ChecksumCRC32C)
	return Option{Kind: OptChunkChecksum, Data: data[:]}
}

// ParseChunkChecksum decodes a chunk-checksum option, returning the
// algorithm identifier. Unknown algorithms are malformed: a depot that
// cannot verify must degrade to unchecked forwarding, not guess.
func ParseChunkChecksum(o Option) (uint16, error) {
	if o.Kind != OptChunkChecksum || len(o.Data) != 2 {
		return 0, fmt.Errorf("%w: bad chunk checksum option", ErrBadOption)
	}
	alg := binary.BigEndian.Uint16(o.Data)
	if alg != ChecksumCRC32C {
		return 0, fmt.Errorf("%w: unknown checksum algorithm %d", ErrBadOption, alg)
	}
	return alg, nil
}

// Checksummed reports whether the session payload is framed in
// CRC-32C-checksummed chunks. A missing or malformed option degrades
// to false — unchecked forwarding — never to a parse failure.
func (h *Header) Checksummed() bool {
	if opt, ok := h.Option(OptChunkChecksum); ok {
		if _, err := ParseChunkChecksum(opt); err == nil {
			return true
		}
	}
	return false
}

// DigestLen is the length of a content digest sum (SHA-256).
const DigestLen = 32

// ContentDigest is the end-to-end integrity statement a sender mints
// for a transfer: the object's byte size and the SHA-256 over those
// bytes in offset order.
type ContentDigest struct {
	Size int64
	Sum  [DigestLen]byte
}

// ContentDigestOption encodes a content digest: 8 bytes of big-endian
// size followed by the 32-byte SHA-256 sum.
func ContentDigestOption(d ContentDigest) Option {
	data := make([]byte, 8+DigestLen)
	binary.BigEndian.PutUint64(data, uint64(d.Size))
	copy(data[8:], d.Sum[:])
	return Option{Kind: OptContentDigest, Data: data}
}

// ParseContentDigest decodes a content-digest option.
func ParseContentDigest(o Option) (ContentDigest, error) {
	var d ContentDigest
	if o.Kind != OptContentDigest || len(o.Data) != 8+DigestLen {
		return d, fmt.Errorf("%w: bad content digest", ErrBadOption)
	}
	size := binary.BigEndian.Uint64(o.Data)
	if size > 1<<62 {
		return d, fmt.Errorf("%w: content digest size %d out of range", ErrBadOption, size)
	}
	d.Size = int64(size)
	copy(d.Sum[:], o.Data[8:])
	return d, nil
}

// ContentDigest returns the carried end-to-end digest and whether one
// is present. A malformed option degrades to absent — the sink simply
// does not verify — never to a parse failure.
func (h *Header) ContentDigest() (ContentDigest, bool) {
	if opt, ok := h.Option(OptContentDigest); ok {
		if d, err := ParseContentDigest(opt); err == nil {
			return d, true
		}
	}
	return ContentDigest{}, false
}

// Chunk frame layout: a 4-byte big-endian payload length and a 4-byte
// big-endian CRC-32C over the payload, followed by the payload itself.
// The stream is a back-to-back frame sequence ending at transport EOF.
const (
	// FrameHeaderLen is the per-chunk framing overhead in bytes.
	FrameHeaderLen = 8
	// MaxFramePayload bounds one frame's payload, defending receivers
	// against corrupt length fields. It comfortably covers the depot
	// pipeline's 32 KiB chunk unit.
	MaxFramePayload = 64 << 10
)

// FrameWriter frames a payload stream into checksummed chunks: each
// Write becomes one or more frames of at most MaxFramePayload bytes.
// The initiator of a checksummed session writes its payload through
// one of these.
type FrameWriter struct {
	w   io.Writer
	buf []byte
}

// NewFrameWriter returns a FrameWriter emitting frames to w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w, buf: make([]byte, FrameHeaderLen+MaxFramePayload)}
}

// Write frames p and writes it out, reporting len(p) on success. Each
// frame is emitted in a single underlying Write so the downstream
// transport sees whole frames.
func (fw *FrameWriter) Write(p []byte) (int, error) {
	var written int
	for len(p) > 0 {
		n := min(len(p), MaxFramePayload)
		binary.BigEndian.PutUint32(fw.buf[0:4], uint32(n))
		binary.BigEndian.PutUint32(fw.buf[4:8], crc32.Checksum(p[:n], crcTable))
		copy(fw.buf[FrameHeaderLen:], p[:n])
		if _, err := fw.w.Write(fw.buf[:FrameHeaderLen+n]); err != nil {
			return written, err
		}
		written += n
		p = p[n:]
	}
	return written, nil
}

// FrameHeader returns the header a frame carrying payload travels and
// is stored under. Storage that keeps payload where it landed (the
// depot cache) stamps and re-checks its frames with this instead of
// copying every byte through a FrameWriter and back through a
// FrameReader.
func FrameHeader(payload []byte) (hdr [FrameHeaderLen]byte) {
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	return hdr
}

// MaxFrameLen is the encoded size of the largest frame: the room a
// buffer needs for FrameScanner.ReadFrame to land any frame in it.
const MaxFrameLen = FrameHeaderLen + MaxFramePayload

// FrameScanner reads a checksummed frame stream one frame at a time,
// each straight into a buffer of the caller's and verified where it
// landed: the one place a frame is parsed and its CRC-32C checked.
type FrameScanner struct {
	r      io.Reader
	frame  int64 // frames verified so far
	offset int64 // payload bytes verified so far
}

// NewFrameScanner returns a FrameScanner over r.
func NewFrameScanner(r io.Reader) *FrameScanner { return &FrameScanner{r: r} }

// ReadFrame reads the next frame into buf, which must hold MaxFrameLen
// bytes, and returns its encoded length n: buf[:n] is [len|crc|payload],
// the CRC checked against the payload as it lies there, and nothing past
// buf[n] is written. A clean EOF at a frame boundary ends the stream; a
// tear inside a frame is a transport event (io.ErrUnexpectedEOF —
// transient); a bad length or CRC is ErrChecksum — detected corruption.
func (s *FrameScanner) ReadFrame(buf []byte) (int, error) {
	hdr := buf[:FrameHeaderLen]
	if _, err := io.ReadFull(s.r, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("wire: torn frame header: %w", err)
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	if length == 0 || length > MaxFramePayload {
		return 0, fmt.Errorf("%w: frame %d at offset %d: length %d out of range",
			ErrChecksum, s.frame, s.offset, length)
	}
	n := FrameHeaderLen + int(length)
	payload := buf[FrameHeaderLen:n]
	if _, err := io.ReadFull(s.r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("wire: torn frame payload: %w", err)
	}
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(hdr[4:8]) {
		return 0, fmt.Errorf("%w: frame %d at offset %d", ErrChecksum, s.frame, s.offset)
	}
	s.frame++
	s.offset += int64(length)
	return n, nil
}

// frameReader adapts a FrameScanner to io.Reader for the ends of a
// session, which consume a byte stream: it scans each frame into a
// buffer of its own and copies out of it, from skip on.
type frameReader struct {
	scan   FrameScanner
	skip   int    // FrameHeaderLen to yield payload only, 0 the encoded frame
	buf    []byte // one encoded frame
	pos, n int    // unread window of buf
}

func newFrameReader(r io.Reader, skip int) frameReader {
	return frameReader{scan: FrameScanner{r: r}, skip: skip, buf: make([]byte, MaxFrameLen)}
}

// VerifyingReader verifies a checksummed frame stream chunk by chunk
// and yields the verified frames unchanged, so a corrupted chunk
// surfaces as ErrChecksum at the first reader after the corruption.
type VerifyingReader struct{ frameReader }

// NewVerifyingReader returns a VerifyingReader over r.
func NewVerifyingReader(r io.Reader) *VerifyingReader {
	return &VerifyingReader{newFrameReader(r, 0)}
}

// FrameReader verifies a checksummed frame stream and yields the raw
// payload with the framing stripped — the sink side of a checksummed
// session.
type FrameReader struct{ frameReader }

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{newFrameReader(r, FrameHeaderLen)}
}

// Read implements io.Reader over the verified stream.
func (s *frameReader) Read(p []byte) (int, error) {
	for s.pos >= s.n {
		n, err := s.scan.ReadFrame(s.buf)
		if err != nil {
			return 0, err
		}
		s.pos, s.n = s.skip, n
	}
	n := copy(p, s.buf[s.pos:s.n])
	s.pos += n
	return n, nil
}
