package depot

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"github.com/netlogistics/lsl/internal/bufpool"
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

// keeper is a writer that keeps every slice it is handed, unchanged
// and uncopied, and a copy of the stream.
type keeper struct {
	slices [][]byte
	stream []byte
}

func (k *keeper) Write(p []byte) (int, error) {
	k.slices = append(k.slices, p)
	k.stream = append(k.stream, p...)
	return len(p), nil
}

// TestPeriodTable holds the period table to FillPattern at offsets in
// [0, 2·65 536) over lengths that cross the period boundary once to
// three times: WritePattern writes FillPattern's bytes at most a
// bufpool chunk a Write, no write of the send reaches the table (every
// slice the writer kept still holds the pattern once the send is
// over), and ReadVerified, plain or framed, reports a single flipped
// byte at its exact offset with VerifyPattern's error, having handed on
// only whole reads before it.
func TestPeriodTable(t *testing.T) {
	id := wire.SessionID{0x5a, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0xa5}
	rng := rand.New(rand.NewSource(1))
	froms := []int64{0, 1, 15, 16, patternPeriod - 16, patternPeriod - 1, patternPeriod, patternPeriod + 7, 2*patternPeriod - 1}
	for len(froms) < 60 {
		froms = append(froms, rng.Int63n(2*patternPeriod))
	}
	for _, from := range froms {
		n := patternPeriod - from%patternPeriod + 1 + rng.Int63n(2*patternPeriod)
		want := make([]byte, n)
		FillPattern(want, id, from)

		var k keeper
		if m, err := WritePattern(&k, id, from, from+n); err != nil || m != n {
			t.Fatalf("WritePattern(from %d, n %d) = %d, %v", from, n, m, err)
		}
		if !bytes.Equal(k.stream, want) {
			t.Fatalf("WritePattern(from %d, n %d) differs from FillPattern", from, n)
		}
		off := from
		for _, p := range k.slices {
			if len(p) > bufpool.ChunkSize {
				t.Fatalf("from %d: a %d-byte write, over one %d-byte chunk", from, len(p), bufpool.ChunkSize)
			}
			if err := VerifyPattern(p, id, off); err != nil {
				t.Fatalf("from %d: a slice handed to the writer was written through: %v", from, err)
			}
			off += int64(len(p))
		}

		flip := rng.Int63n(n)
		bad := bytes.Clone(want)
		bad[flip] ^= 0x20
		msg := fmt.Sprintf("depot: pattern mismatch at offset %d", from+flip)
		if err := VerifyPattern(bad, id, from); err == nil || err.Error() != msg {
			t.Fatalf("VerifyPattern(from %d, flip %d) = %v, want %q", from, flip, err, msg)
		}
		var framed bytes.Buffer
		wire.NewFrameWriter(&framed).Write(bad) //nolint:errcheck // a buffer takes every write
		for _, in := range []struct {
			r      io.Reader
			framed bool
		}{{bytes.NewReader(bad), false}, {&framed, true}} {
			var handed int64
			got, err := ReadVerified(in.r, id, from, in.framed, func(p []byte, off int64) {
				if off != from+handed {
					t.Fatalf("ReadVerified handed offset %d, want %d", off, from+handed)
				}
				handed += int64(len(p))
			})
			if err == nil || err.Error() != msg {
				t.Fatalf("ReadVerified(from %d, flip %d, framed %v) = %v, want %q", from, flip, in.framed, err, msg)
			}
			if got != handed || got > flip || flip-got >= bufpool.ChunkSize {
				t.Fatalf("ReadVerified(from %d, flip %d, framed %v) verified %d, handed on %d", from, flip, in.framed, got, handed)
			}
		}
	}
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
