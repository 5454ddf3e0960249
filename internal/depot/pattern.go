package depot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/netlogistics/lsl/internal/bufpool"
	"github.com/netlogistics/lsl/internal/wire"
)

// The session pattern puts id[pos%16] ^ byte(pos) ^ byte(pos>>8) at
// stream offset pos. At a 16-aligned pos the low nibble of byte(pos)
// is zero, so over the next sixteen offsets byte(pos+j) is byte(pos)^j
// and byte((pos+j)>>8) does not change: the sixteen bytes are id ^
// 0x0f0e…0100 ^ broadcast(byte(pos) ^ byte(pos>>8)), two 64-bit words.

// patternWords returns id ^ 0x0f0e…0100 as two little-endian words.
func patternWords(id wire.SessionID) (lo, hi uint64) {
	lo = binary.LittleEndian.Uint64(id[0:8]) ^ 0x0706050403020100
	hi = binary.LittleEndian.Uint64(id[8:16]) ^ 0x0f0e0d0c0b0a0908
	return lo, hi
}

// patternMix broadcasts byte(pos) ^ byte(pos>>8) over a word.
func patternMix(pos int64) uint64 {
	return uint64(byte(pos)^byte(pos>>8)) * 0x0101010101010101
}

func patternByte(id wire.SessionID, pos int64) byte {
	return id[pos&15] ^ byte(pos) ^ byte(pos>>8)
}

// FillPattern fills buf with the deterministic byte pattern of the
// session at the given stream offset.
func FillPattern(buf []byte, id wire.SessionID, offset int64) {
	i := min(len(buf), int(-offset&15)) // up to the first 16-aligned offset
	for j := range buf[:i] {
		buf[j] = patternByte(id, offset+int64(j))
	}
	lo, hi := patternWords(id)
	for ; i+16 <= len(buf); i += 16 {
		mix := patternMix(offset + int64(i))
		binary.LittleEndian.PutUint64(buf[i:], lo^mix)
		binary.LittleEndian.PutUint64(buf[i+8:], hi^mix)
	}
	for ; i < len(buf); i++ {
		buf[i] = patternByte(id, offset+int64(i))
	}
}

// patternPeriod is the pattern's period: id[pos%16] repeats every 16
// offsets and byte(pos) ^ byte(pos>>8) every 65 536.
const patternPeriod = 1 << 16

// patternTable is a session's pattern from stream offset base on, for
// at most one period: a whole period holds the pattern at every offset
// from base on. Nothing writes to it once it is filled.
type patternTable struct {
	base int64
	b    []byte
}

// newPatternTable builds session id's table at base, n bytes long or
// one period, whichever is shorter.
func newPatternTable(id wire.SessionID, base, n int64) patternTable {
	t := patternTable{base: base, b: make([]byte, max(min(n, patternPeriod), 0))}
	FillPattern(t.b, id, base)
	return t
}

// at returns the table's run of the pattern at stream offset off, at
// most n bytes long.
func (t patternTable) at(off int64, n int) []byte {
	i := int((off - t.base) % int64(len(t.b)))
	return t.b[i:min(len(t.b), i+n)]
}

// verify checks that p is the pattern at stream offset off: run by run
// against the table and, in a run that differs, byte by byte, so the
// error names the first mismatching offset.
func (t patternTable) verify(p []byte, off int64) error {
	for len(p) > 0 {
		q := t.at(off, len(p))
		if !bytes.Equal(p[:len(q)], q) {
			for i := range q {
				if p[i] != q[i] {
					return fmt.Errorf("depot: pattern mismatch at offset %d", off+int64(i))
				}
			}
		}
		p, off = p[len(q):], off+int64(len(q))
	}
	return nil
}

// WritePattern writes the session pattern for absolute offsets
// [from, to) to w from one period table, a bufpool chunk a Write (one
// frame under a FrameWriter): the one pattern writer of every sender,
// generating depot and digest. It returns how many bytes w took.
func WritePattern(w io.Writer, id wire.SessionID, from, to int64) (int64, error) {
	t, off := newPatternTable(id, from, to-from), from
	for off < to {
		m, err := w.Write(t.at(off, int(min(to-off, bufpool.ChunkSize))))
		off += int64(m)
		if err != nil {
			return off - from, err
		}
	}
	return off - from, nil
}

// VerifyPattern checks that buf matches the session pattern at offset.
// The error names the first mismatching stream offset.
func VerifyPattern(buf []byte, id wire.SessionID, offset int64) error {
	return newPatternTable(id, offset, int64(len(buf))).verify(buf, offset)
}
