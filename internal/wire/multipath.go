package wire

import (
	"encoding/binary"
	"fmt"
)

// Every session of a multipath transfer shares the transfer's session
// id (so the sink stitches the routes by absolute offset, exactly as
// stripes do) and carries its own (index, count) route coordinate,
// which depots forward untouched; a malformed body degrades to absent,
// which a reader must treat as "single path". Kind 19 is reserved: it
// was a path-set id nothing read.
const (
	// OptPathIndex carries which disjoint route (index) of how many
	// (count) this session is pinned to.
	OptPathIndex uint16 = 20
)

// PathIndexOption identifies which of count disjoint routes this
// session is pinned to. Index is zero-based and must be below count.
func PathIndexOption(index, count uint16) Option {
	var data [4]byte
	binary.BigEndian.PutUint16(data[:2], index)
	binary.BigEndian.PutUint16(data[2:], count)
	return Option{Kind: OptPathIndex, Data: data[:]}
}

// ParsePathIndex decodes a path-index option body. A count of zero or
// an index at or beyond the count is malformed: a multipath set always
// has at least one route and every session must name one of them.
func ParsePathIndex(o Option) (index, count uint16, err error) {
	if o.Kind != OptPathIndex || len(o.Data) != 4 {
		return 0, 0, fmt.Errorf("%w: bad path index", ErrBadOption)
	}
	index = binary.BigEndian.Uint16(o.Data[:2])
	count = binary.BigEndian.Uint16(o.Data[2:])
	if count == 0 {
		return 0, 0, fmt.Errorf("%w: path count 0", ErrBadOption)
	}
	if index >= count {
		return 0, 0, fmt.Errorf("%w: path index %d of %d", ErrBadOption, index, count)
	}
	return index, count, nil
}

// PathCount returns how many disjoint routes the session's transfer is
// fanned over: 1 for a single-path session or a malformed option — an
// unreadable coordinate must not make a depot misroute a session it
// can still forward.
func (h *Header) PathCount() int {
	if opt, ok := h.Option(OptPathIndex); ok {
		if _, n, err := ParsePathIndex(opt); err == nil {
			return int(n)
		}
	}
	return 1
}

// PathIndex returns which disjoint route this session is pinned to
// (0 when single-path or unreadable).
func (h *Header) PathIndex() int {
	if opt, ok := h.Option(OptPathIndex); ok {
		if i, _, err := ParsePathIndex(opt); err == nil {
			return int(i)
		}
	}
	return 0
}
