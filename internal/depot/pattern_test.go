package depot

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/netlogistics/lsl/internal/wire"
)

// refPattern is the pattern's definition, one byte at a time: the
// reference the word-wide kernel is held to.
func refPattern(buf []byte, id wire.SessionID, offset int64) {
	for i := range buf {
		pos := offset + int64(i)
		buf[i] = id[pos%16] ^ byte(pos) ^ byte(pos>>8)
	}
}

// checkPatternKernel holds FillPattern and VerifyPattern to the
// reference for one (id, offset, length), then flips the byte at
// flipAt (when inside the buffer) and demands that exact offset back.
func checkPatternKernel(t *testing.T, id wire.SessionID, offset int64, length, flipAt int) {
	t.Helper()
	want := make([]byte, length)
	refPattern(want, id, offset)
	// Guard bytes either side: the kernel must not store outside buf.
	got := bytes.Repeat([]byte{0xA5}, length+32)
	FillPattern(got[16:16+length], id, offset)
	if !bytes.Equal(got[16:16+length], want) {
		t.Fatalf("FillPattern(len %d, offset %d) differs from the reference", length, offset)
	}
	if !bytes.Equal(got[:16], bytes.Repeat([]byte{0xA5}, 16)) || !bytes.Equal(got[16+length:], bytes.Repeat([]byte{0xA5}, 16)) {
		t.Fatalf("FillPattern(len %d, offset %d) wrote outside its buffer", length, offset)
	}
	if err := VerifyPattern(want, id, offset); err != nil {
		t.Fatalf("VerifyPattern rejects the reference pattern: %v", err)
	}
	if flipAt < 0 || flipAt >= length {
		return
	}
	want[flipAt] ^= 0x40
	// Damage after the flip must not change which offset is named.
	if flipAt+20 < length {
		want[flipAt+20] ^= 0x01
	}
	err := VerifyPattern(want, id, offset)
	if msg := fmt.Sprintf("depot: pattern mismatch at offset %d", offset+int64(flipAt)); err == nil || err.Error() != msg {
		t.Fatalf("VerifyPattern(len %d, offset %d, flip %d) = %v, want %q", length, offset, flipAt, err, msg)
	}
}

// patternOffsets cross every alignment, a 256- and a 65 536-byte
// boundary, and the 2^32 line.
var patternOffsets = []int64{0, 1, 15, 16, 17, 250, 65530, 1<<32 - 3, 1<<32 + 5, 1<<40 + 9}

func TestPatternKernelMatchesReference(t *testing.T) {
	id := wire.SessionID{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	for _, offset := range patternOffsets {
		for _, length := range []int{0, 1, 15, 16, 17, 31, 32, 33, 255, 257, 700} {
			for flipAt := -1; flipAt < length; flipAt += 7 {
				checkPatternKernel(t, id, offset, length, flipAt)
			}
		}
	}
	// Every stream byte of two 64 KiB wraps, in one buffer.
	checkPatternKernel(t, id, 3, 2<<16+40, 1<<16+1)
}

func FuzzPatternKernel(f *testing.F) {
	for i, offset := range patternOffsets {
		f.Add([]byte{byte(i), 0xff, 0x10}, offset, uint16(17+i*37), uint16(i*5))
	}
	f.Add(bytes.Repeat([]byte{0x80}, 16), int64(65536-8), uint16(4096), uint16(4095))
	f.Fuzz(func(t *testing.T, idBytes []byte, offset int64, length, flipAt uint16) {
		if offset < 0 {
			offset = -(offset + 1)
		}
		offset &= 1<<62 - 1
		var id wire.SessionID
		copy(id[:], idBytes)
		checkPatternKernel(t, id, offset, int(length), int(flipAt))
	})
}

func BenchmarkPattern(b *testing.B) {
	id := wire.SessionID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	buf := make([]byte, 1<<20)
	b.Run("Fill", func(b *testing.B) {
		b.SetBytes(int64(len(buf)))
		for i := 0; i < b.N; i++ {
			FillPattern(buf, id, 0)
		}
	})
	b.Run("Verify", func(b *testing.B) {
		FillPattern(buf, id, 0)
		b.SetBytes(int64(len(buf)))
		for i := 0; i < b.N; i++ {
			if err := VerifyPattern(buf, id, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Digest", func(b *testing.B) {
		b.SetBytes(int64(len(buf)))
		for i := 0; i < b.N; i++ {
			if d := PatternDigest(id, int64(len(buf))); d.Size != int64(len(buf)) {
				b.Fatal("digest size")
			}
		}
	})
}
