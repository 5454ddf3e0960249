package depot

import (
	"encoding/binary"
	"fmt"
	"io"

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

// patternHead returns how many bytes of an n-byte buffer at offset
// precede the first 16-aligned stream offset.
func patternHead(n int, offset int64) int {
	return min(n, int(-offset&15))
}

// FillPattern fills buf with the deterministic byte pattern of the
// session at the given stream offset.
func FillPattern(buf []byte, id wire.SessionID, offset int64) {
	i := patternHead(len(buf), offset)
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

// WritePattern writes the session pattern for absolute offsets
// [from, to) to w, one buf-sized Write at a time: the one pattern
// writer of every sender, generating depot and digest. It returns how
// many bytes w took.
func WritePattern(w io.Writer, buf []byte, id wire.SessionID, from, to int64) (int64, error) {
	off := from
	for off < to {
		n := min(int64(len(buf)), to-off)
		FillPattern(buf[:n], id, off)
		m, err := w.Write(buf[:n])
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
	i := patternHead(len(buf), offset)
	if err := verifyPatternBytes(buf[:i], id, offset); err != nil {
		return err
	}
	lo, hi := patternWords(id)
	for ; i+16 <= len(buf); i += 16 {
		mix := patternMix(offset + int64(i))
		if binary.LittleEndian.Uint64(buf[i:]) != lo^mix || binary.LittleEndian.Uint64(buf[i+8:]) != hi^mix {
			break // the byte loop below finds which of the sixteen
		}
	}
	return verifyPatternBytes(buf[i:], id, offset+int64(i))
}

func verifyPatternBytes(buf []byte, id wire.SessionID, offset int64) error {
	for i, b := range buf {
		if pos := offset + int64(i); b != patternByte(id, pos) {
			return fmt.Errorf("depot: pattern mismatch at offset %d", pos)
		}
	}
	return nil
}
