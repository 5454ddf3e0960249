// Package wire defines the Logistical Session Layer wire format.
//
// Every LSL session begins with a header carrying a 128-bit session
// identifier, IPv4 source and destination addresses with 16-bit ports,
// 16-bit Version and Type fields, and a header-length field so the
// header can carry variable-length options (Section 2 of the paper).
// Options are TLVs; the ones defined here are the loose source route
// (the initiator-specified path through session-layer depots), the
// multicast staging tree, and the generate-data test request used by
// the evaluation harness.
//
// Fixed header layout, big endian:
//
//	offset 0  Version   uint16
//	offset 2  Type      uint16
//	offset 4  HeaderLen uint16 (total bytes including options)
//	offset 6  reserved  uint16 (zero)
//	offset 8  SessionID [16]byte
//	offset 24 SrcIP     [4]byte
//	offset 28 DstIP     [4]byte
//	offset 32 SrcPort   uint16
//	offset 34 DstPort   uint16
//	offset 36 options...
package wire

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// Version1 is the protocol version implemented by this package.
const Version1 uint16 = 1

// Session types.
const (
	// TypeData opens a point-to-point data session: the byte stream
	// after the header is the payload, terminated by connection close.
	TypeData uint16 = 1
	// TypeGenerate asks the receiving depot to synthesize test data:
	// the header must carry a GenerateOption. Used by the evaluation's
	// pseudo-random test generator.
	TypeGenerate uint16 = 2
	// TypeRefuse is sent back by a depot that declines a session (e.g.
	// on load), before closing the connection.
	TypeRefuse uint16 = 3
	// TypeMulticast opens a staging session that fans the payload out
	// to every leaf of the carried multicast tree.
	TypeMulticast uint16 = 4
	// TypeStore asks the destination depot to hold the payload instead
	// of delivering it, keyed by the session id — the first half of the
	// paper's asynchronous session mode ("an asynchronous session is
	// possible with the receiver discovering the session identifier and
	// reading the data from the last depot").
	TypeStore uint16 = 5
	// TypeFetch retrieves a stored payload: the header carries an
	// OptFetchID naming the stored session; the depot answers with a
	// TypeData header followed by the bytes.
	TypeFetch uint16 = 6
)

// Option kinds.
const (
	// OptSourceRoute carries the remaining loose source route: a list
	// of endpoints still to traverse, ending with the final sink.
	OptSourceRoute uint16 = 1
	// Kind 2 is reserved: it was a buffer advertisement nothing
	// produced or read.
	// OptGenerate carries the byte count of a TypeGenerate or TypeStore session.
	OptGenerate uint16 = 3
	// OptMulticastTree carries a serialized staging tree.
	OptMulticastTree uint16 = 4
	// OptFetchID names the stored session a TypeFetch request wants.
	OptFetchID uint16 = 5
	// OptHopIndex counts the depots a session has traversed so far.
	// The initiator omits it (hop 0); each depot stamps its own
	// position into the forwarded header, so every node knows where it
	// sits in the chain — the key per-hop trace events are indexed by.
	OptHopIndex uint16 = 6
	// OptResumeOffset marks a session as the continuation of an
	// interrupted transfer: the payload stream begins at this absolute
	// byte offset of the original object rather than at zero. Depots
	// forward it untouched; the sink uses it to append instead of
	// restart — the recovery path's resume semantics.
	OptResumeOffset uint16 = 7
	// OptStripeCount announces that the session's object is striped
	// over this many parallel sublink chains sharing one session id.
	// Each stripe is an ordinary data session carrying a contiguous
	// byte range of the object; the range start travels in
	// OptResumeOffset, so the sink reassembles by absolute offset with
	// the same machinery that handles resumed transfers. Depots forward
	// the option untouched.
	OptStripeCount uint16 = 8
	// OptStripeIndex identifies which stripe (0-based, less than the
	// carried OptStripeCount) this sublink chain carries. Depots use it
	// to label per-stripe trace events and the active-stripes gauge;
	// it never affects routing.
	OptStripeIndex uint16 = 9
	// OptChunkChecksum announces that the session payload is framed in
	// checksummed chunks: every chunk travels behind a length + CRC-32C
	// frame header that each depot hop verifies and re-stamps before
	// forwarding, so a corrupting hop is caught by its immediate
	// successor. A malformed option degrades to unchecked forwarding.
	OptChunkChecksum uint16 = 14
	// OptContentDigest carries the SHA-256 of the whole payload (and
	// its byte size), minted by the sender and forwarded untouched;
	// the sink verifies the reassembled object against it end to end.
	OptContentDigest uint16 = 15
)

// HeaderFixedLen is the size of the fixed portion of the header.
const HeaderFixedLen = 36

// MaxHeaderLen bounds accepted headers, defending depots against
// malformed length fields.
const MaxHeaderLen = 64 << 10

// SessionID is the 128-bit session identifier.
type SessionID [16]byte

// NewSessionID draws a random session identifier.
func NewSessionID() (SessionID, error) {
	var id SessionID
	if _, err := rand.Read(id[:]); err != nil {
		return id, fmt.Errorf("wire: session id: %w", err)
	}
	return id, nil
}

// String renders the id as hex.
func (id SessionID) String() string { return hex.EncodeToString(id[:]) }

// Endpoint is an IPv4 address and port, the addressing unit of LSL.
type Endpoint struct {
	IP   [4]byte
	Port uint16
}

// ParseEndpoint parses "a.b.c.d:port".
func ParseEndpoint(s string) (Endpoint, error) {
	host, portStr, err := net.SplitHostPort(s)
	if err != nil {
		return Endpoint{}, fmt.Errorf("wire: endpoint %q: %w", s, err)
	}
	ip := net.ParseIP(host)
	if ip == nil {
		return Endpoint{}, fmt.Errorf("wire: endpoint %q: bad IPv4 address", s)
	}
	v4 := ip.To4()
	if v4 == nil {
		return Endpoint{}, fmt.Errorf("wire: endpoint %q: not IPv4 (LSL headers are v4)", s)
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return Endpoint{}, fmt.Errorf("wire: endpoint %q: bad port: %w", s, err)
	}
	var e Endpoint
	copy(e.IP[:], v4)
	e.Port = uint16(port)
	return e, nil
}

// MustEndpoint is ParseEndpoint panicking on error, for tests and
// literals.
func MustEndpoint(s string) Endpoint {
	e, err := ParseEndpoint(s)
	if err != nil {
		panic(err)
	}
	return e
}

// String renders the endpoint as "a.b.c.d:port".
func (e Endpoint) String() string {
	return fmt.Sprintf("%d.%d.%d.%d:%d", e.IP[0], e.IP[1], e.IP[2], e.IP[3], e.Port)
}

// IsZero reports whether the endpoint is unset.
func (e Endpoint) IsZero() bool { return e == Endpoint{} }

// Option is one header TLV.
type Option struct {
	Kind uint16
	Data []byte
}

// Header is a parsed LSL session header.
type Header struct {
	Version uint16
	Type    uint16
	Session SessionID
	Src     Endpoint
	Dst     Endpoint
	Options []Option
}

// Errors returned by header parsing.
var (
	ErrBadMagicLen   = errors.New("wire: header length field out of range")
	ErrBadVersion    = errors.New("wire: unsupported version")
	ErrTruncated     = errors.New("wire: truncated header")
	ErrOptionBounds  = errors.New("wire: option overruns header")
	ErrOptionMissing = errors.New("wire: required option missing")
)

// Option returns the last option of the given kind. Duplicate
// occurrences of a singleton option kind are explicitly last-wins: a
// node that wants to override an inherited value appends its own
// option rather than rewriting the header, and every reader agrees on
// which copy governs. Multi-instance kinds (OptRouteTable chunks,
// OptCacheLookup inventories) are read by iterating Options directly
// and are unaffected.
func (h *Header) Option(kind uint16) (Option, bool) {
	for i := len(h.Options) - 1; i >= 0; i-- {
		if h.Options[i].Kind == kind {
			return h.Options[i], true
		}
	}
	return Option{}, false
}

// AddOption appends an option.
func (h *Header) AddOption(o Option) { h.Options = append(h.Options, o) }

// MarshalBinary encodes the header.
func (h *Header) MarshalBinary() ([]byte, error) {
	total := HeaderFixedLen
	for _, o := range h.Options {
		total += 4 + len(o.Data)
	}
	if total > MaxHeaderLen {
		return nil, fmt.Errorf("wire: header too large (%d > %d)", total, MaxHeaderLen)
	}
	buf := make([]byte, total)
	be := binary.BigEndian
	be.PutUint16(buf[0:], h.Version)
	be.PutUint16(buf[2:], h.Type)
	be.PutUint16(buf[4:], uint16(total))
	copy(buf[8:24], h.Session[:])
	copy(buf[24:28], h.Src.IP[:])
	copy(buf[28:32], h.Dst.IP[:])
	be.PutUint16(buf[32:], h.Src.Port)
	be.PutUint16(buf[34:], h.Dst.Port)
	off := HeaderFixedLen
	for _, o := range h.Options {
		be.PutUint16(buf[off:], o.Kind)
		be.PutUint16(buf[off+2:], uint16(len(o.Data)))
		copy(buf[off+4:], o.Data)
		off += 4 + len(o.Data)
	}
	return buf, nil
}

// UnmarshalBinary decodes a complete header from buf.
func (h *Header) UnmarshalBinary(buf []byte) error {
	if len(buf) < HeaderFixedLen {
		return ErrTruncated
	}
	be := binary.BigEndian
	h.Version = be.Uint16(buf[0:])
	if h.Version != Version1 {
		return fmt.Errorf("%w: %d", ErrBadVersion, h.Version)
	}
	h.Type = be.Uint16(buf[2:])
	hlen := int(be.Uint16(buf[4:]))
	if hlen < HeaderFixedLen || hlen > len(buf) {
		return ErrBadMagicLen
	}
	copy(h.Session[:], buf[8:24])
	copy(h.Src.IP[:], buf[24:28])
	copy(h.Dst.IP[:], buf[28:32])
	h.Src.Port = be.Uint16(buf[32:])
	h.Dst.Port = be.Uint16(buf[34:])
	h.Options = nil
	off := HeaderFixedLen
	for off < hlen {
		if off+4 > hlen {
			return ErrOptionBounds
		}
		kind := be.Uint16(buf[off:])
		dlen := int(be.Uint16(buf[off+2:]))
		if off+4+dlen > hlen {
			return ErrOptionBounds
		}
		h.Options = append(h.Options, Option{
			Kind: kind,
			Data: append([]byte(nil), buf[off+4:off+4+dlen]...),
		})
		off += 4 + dlen
	}
	return nil
}

// WriteHeader writes the encoded header to w.
func WriteHeader(w io.Writer, h *Header) error {
	buf, err := h.MarshalBinary()
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	return nil
}

// ReadHeader reads and decodes one header from r.
func ReadHeader(r io.Reader) (*Header, error) {
	fixed := make([]byte, HeaderFixedLen)
	if _, err := io.ReadFull(r, fixed); err != nil {
		return nil, fmt.Errorf("wire: read header: %w", err)
	}
	if v := binary.BigEndian.Uint16(fixed[0:]); v != Version1 {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	hlen := int(binary.BigEndian.Uint16(fixed[4:]))
	if hlen < HeaderFixedLen || hlen > MaxHeaderLen {
		return nil, ErrBadMagicLen
	}
	buf := make([]byte, hlen)
	copy(buf, fixed)
	if _, err := io.ReadFull(r, buf[HeaderFixedLen:]); err != nil {
		return nil, fmt.Errorf("wire: read header options: %w", err)
	}
	h := new(Header)
	if err := h.UnmarshalBinary(buf); err != nil {
		return nil, err
	}
	return h, nil
}
