package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// SourceRouteOption encodes the remaining loose source route: the
// endpoints still to traverse in order, ending with the final sink.
// A depot receiving a session pops the first entry (itself, or rather
// its successor) and forwards.
func SourceRouteOption(hops []Endpoint) Option {
	data := make([]byte, 0, 6*len(hops))
	for _, h := range hops {
		data = append(data, h.IP[:]...)
		var p [2]byte
		binary.BigEndian.PutUint16(p[:], h.Port)
		data = append(data, p[:]...)
	}
	return Option{Kind: OptSourceRoute, Data: data}
}

// ErrBadOption indicates a malformed option body.
var ErrBadOption = errors.New("wire: malformed option")

// ParseSourceRoute decodes a source-route option body.
func ParseSourceRoute(o Option) ([]Endpoint, error) {
	if o.Kind != OptSourceRoute {
		return nil, fmt.Errorf("%w: kind %d is not a source route", ErrBadOption, o.Kind)
	}
	if len(o.Data)%6 != 0 {
		return nil, fmt.Errorf("%w: source route length %d not a multiple of 6", ErrBadOption, len(o.Data))
	}
	hops := make([]Endpoint, 0, len(o.Data)/6)
	for off := 0; off < len(o.Data); off += 6 {
		var e Endpoint
		copy(e.IP[:], o.Data[off:off+4])
		e.Port = binary.BigEndian.Uint16(o.Data[off+4:])
		hops = append(hops, e)
	}
	return hops, nil
}

// GenerateOption carries the byte count of a TypeGenerate or TypeStore session.
func GenerateOption(size uint64) Option {
	var data [8]byte
	binary.BigEndian.PutUint64(data[:], size)
	return Option{Kind: OptGenerate, Data: data[:]}
}

// ParseGenerate decodes a generate request size.
func ParseGenerate(o Option) (uint64, error) {
	if o.Kind != OptGenerate || len(o.Data) != 8 {
		return 0, fmt.Errorf("%w: bad generate option", ErrBadOption)
	}
	return binary.BigEndian.Uint64(o.Data), nil
}

// FetchIDOption names a stored session for TypeFetch requests.
func FetchIDOption(id SessionID) Option {
	return Option{Kind: OptFetchID, Data: append([]byte(nil), id[:]...)}
}

// ParseFetchID decodes a fetch-id option.
func ParseFetchID(o Option) (SessionID, error) {
	var id SessionID
	if o.Kind != OptFetchID || len(o.Data) != len(id) {
		return id, fmt.Errorf("%w: bad fetch id", ErrBadOption)
	}
	copy(id[:], o.Data)
	return id, nil
}

// HopIndexOption records how many depots the session has traversed.
func HopIndexOption(hop uint16) Option {
	var data [2]byte
	binary.BigEndian.PutUint16(data[:], hop)
	return Option{Kind: OptHopIndex, Data: data[:]}
}

// ParseHopIndex decodes a hop-index option.
func ParseHopIndex(o Option) (uint16, error) {
	if o.Kind != OptHopIndex || len(o.Data) != 2 {
		return 0, fmt.Errorf("%w: bad hop index", ErrBadOption)
	}
	return binary.BigEndian.Uint16(o.Data), nil
}

// ResumeOffsetOption marks the session payload as starting at the
// given absolute byte offset of the transfer it resumes.
func ResumeOffsetOption(offset uint64) Option {
	var data [8]byte
	binary.BigEndian.PutUint64(data[:], offset)
	return Option{Kind: OptResumeOffset, Data: data[:]}
}

// ParseResumeOffset decodes a resume-offset option.
func ParseResumeOffset(o Option) (uint64, error) {
	if o.Kind != OptResumeOffset || len(o.Data) != 8 {
		return 0, fmt.Errorf("%w: bad resume offset", ErrBadOption)
	}
	return binary.BigEndian.Uint64(o.Data), nil
}

// StripeCountOption announces the number of parallel stripes the
// session's object is split over.
func StripeCountOption(count uint16) Option {
	var data [2]byte
	binary.BigEndian.PutUint16(data[:], count)
	return Option{Kind: OptStripeCount, Data: data[:]}
}

// ParseStripeCount decodes a stripe-count option. A count of zero is
// malformed: a striped session always has at least one stripe.
func ParseStripeCount(o Option) (uint16, error) {
	if o.Kind != OptStripeCount || len(o.Data) != 2 {
		return 0, fmt.Errorf("%w: bad stripe count", ErrBadOption)
	}
	n := binary.BigEndian.Uint16(o.Data)
	if n == 0 {
		return 0, fmt.Errorf("%w: stripe count 0", ErrBadOption)
	}
	return n, nil
}

// StripeIndexOption identifies which stripe this sublink chain carries.
func StripeIndexOption(index uint16) Option {
	var data [2]byte
	binary.BigEndian.PutUint16(data[:], index)
	return Option{Kind: OptStripeIndex, Data: data[:]}
}

// ParseStripeIndex decodes a stripe-index option.
func ParseStripeIndex(o Option) (uint16, error) {
	if o.Kind != OptStripeIndex || len(o.Data) != 2 {
		return 0, fmt.Errorf("%w: bad stripe index", ErrBadOption)
	}
	return binary.BigEndian.Uint16(o.Data), nil
}

// StripeCount returns the number of parallel stripes the session's
// object is split over: 1 for an unstriped session (or a malformed
// option — an unreadable count must not make a depot misroute a
// session it can still forward).
func (h *Header) StripeCount() int {
	if opt, ok := h.Option(OptStripeCount); ok {
		if n, err := ParseStripeCount(opt); err == nil {
			return int(n)
		}
	}
	return 1
}

// StripeIndex returns which stripe this session carries (0 when
// unstriped or unreadable).
func (h *Header) StripeIndex() int {
	if opt, ok := h.Option(OptStripeIndex); ok {
		if i, err := ParseStripeIndex(opt); err == nil {
			return int(i)
		}
	}
	return 0
}

// ResumeOffset returns the absolute byte offset this session's payload
// begins at: 0 for a fresh transfer, the carried offset for a resumed
// one.
func (h *Header) ResumeOffset() int64 {
	if opt, ok := h.Option(OptResumeOffset); ok {
		if off, err := ParseResumeOffset(opt); err == nil {
			return int64(off)
		}
	}
	return 0
}

// HopIndex returns the number of depots this session's header records
// as already traversed: 0 for a header fresh from the initiator, and
// therefore hop n for the n-th depot on the chain after it stamps the
// forwarded header with HopIndexOption(n).
func (h *Header) HopIndex() int {
	if opt, ok := h.Option(OptHopIndex); ok {
		if hop, err := ParseHopIndex(opt); err == nil {
			return int(hop)
		}
	}
	return 0
}

// TreeNode is one node of a multicast staging tree (the synchronous
// application-layer multicast header option of Section 2).
type TreeNode struct {
	Addr     Endpoint
	Children []*TreeNode
}

// MulticastTreeOption serializes a staging tree in preorder, each entry
// carrying its depth so the shape can be rebuilt.
func MulticastTreeOption(root *TreeNode) (Option, error) {
	var data []byte
	var walk func(n *TreeNode, depth int) error
	walk = func(n *TreeNode, depth int) error {
		if n == nil {
			return errors.New("wire: nil multicast tree node")
		}
		if depth > 255 {
			return errors.New("wire: multicast tree too deep")
		}
		data = append(data, byte(depth))
		data = append(data, n.Addr.IP[:]...)
		var p [2]byte
		binary.BigEndian.PutUint16(p[:], n.Addr.Port)
		data = append(data, p[:]...)
		for _, c := range n.Children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, 0); err != nil {
		return Option{}, err
	}
	return Option{Kind: OptMulticastTree, Data: data}, nil
}

// ParseMulticastTree rebuilds a staging tree from its option body.
func ParseMulticastTree(o Option) (*TreeNode, error) {
	if o.Kind != OptMulticastTree {
		return nil, fmt.Errorf("%w: kind %d is not a multicast tree", ErrBadOption, o.Kind)
	}
	if len(o.Data)%7 != 0 || len(o.Data) == 0 {
		return nil, fmt.Errorf("%w: multicast tree length %d", ErrBadOption, len(o.Data))
	}
	type entry struct {
		depth int
		addr  Endpoint
	}
	entries := make([]entry, 0, len(o.Data)/7)
	for off := 0; off < len(o.Data); off += 7 {
		var e entry
		e.depth = int(o.Data[off])
		copy(e.addr.IP[:], o.Data[off+1:off+5])
		e.addr.Port = binary.BigEndian.Uint16(o.Data[off+5:])
		entries = append(entries, e)
	}
	if entries[0].depth != 0 {
		return nil, fmt.Errorf("%w: multicast tree root depth %d", ErrBadOption, entries[0].depth)
	}
	root := &TreeNode{Addr: entries[0].addr}
	stack := []*TreeNode{root}
	for _, e := range entries[1:] {
		if e.depth < 1 || e.depth > len(stack) {
			return nil, fmt.Errorf("%w: multicast tree depth jump to %d", ErrBadOption, e.depth)
		}
		node := &TreeNode{Addr: e.addr}
		parent := stack[e.depth-1]
		parent.Children = append(parent.Children, node)
		stack = append(stack[:e.depth], node)
	}
	return root, nil
}

// Leaves returns the addresses of the tree's leaf nodes.
func (n *TreeNode) Leaves() []Endpoint {
	if len(n.Children) == 0 {
		return []Endpoint{n.Addr}
	}
	var out []Endpoint
	for _, c := range n.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// Size returns the number of nodes in the tree.
func (n *TreeNode) Size() int {
	total := 1
	for _, c := range n.Children {
		total += c.Size()
	}
	return total
}
