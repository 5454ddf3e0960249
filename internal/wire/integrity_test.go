package wire

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"math/rand"
	"testing"
)

func TestChunkChecksumOptionRoundTrip(t *testing.T) {
	o := ChunkChecksumOption()
	alg, err := ParseChunkChecksum(o)
	if err != nil {
		t.Fatalf("ParseChunkChecksum: %v", err)
	}
	if alg != ChecksumCRC32C {
		t.Fatalf("algorithm = %d, want %d", alg, ChecksumCRC32C)
	}
	h := &Header{Options: []Option{o}}
	if !h.Checksummed() {
		t.Fatal("Checksummed() = false with a valid option")
	}
}

func TestChecksummedDegradesOnMalformed(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"absent", nil},
		{"short body", []Option{{Kind: OptChunkChecksum, Data: []byte{1}}}},
		{"unknown algorithm", []Option{{Kind: OptChunkChecksum, Data: []byte{0, 99}}}},
	}
	for _, tc := range cases {
		h := &Header{Options: tc.opts}
		if h.Checksummed() {
			t.Errorf("%s: Checksummed() = true, want degraded false", tc.name)
		}
	}
}

func TestContentDigestRoundTrip(t *testing.T) {
	want := ContentDigest{Size: 1 << 30, Sum: sha256.Sum256([]byte("payload"))}
	h := &Header{Options: []Option{ContentDigestOption(want)}}
	got, ok := h.ContentDigest()
	if !ok {
		t.Fatal("ContentDigest() missing after AddOption")
	}
	if got != want {
		t.Fatalf("digest round-trip: got %+v want %+v", got, want)
	}
}

func TestContentDigestDegradesOnMalformed(t *testing.T) {
	h := &Header{Options: []Option{{Kind: OptContentDigest, Data: []byte{1, 2, 3}}}}
	if _, ok := h.ContentDigest(); ok {
		t.Fatal("malformed digest option parsed as present")
	}
	if _, err := ParseContentDigest(Option{Kind: OptContentDigest, Data: make([]byte, 39)}); err == nil {
		t.Fatal("ParseContentDigest accepted a 39-byte body")
	}
}

// TestFrameRoundTrip frames a payload with odd-sized writes and strips
// it back through both one-frame-at-a-time and bulk reads.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, 3*MaxFramePayload+777)
	rng.Read(payload)

	var framed bytes.Buffer
	fw := NewFrameWriter(&framed)
	for off := 0; off < len(payload); {
		n := 1 + rng.Intn(MaxFramePayload*2)
		if off+n > len(payload) {
			n = len(payload) - off
		}
		wrote, err := fw.Write(payload[off : off+n])
		if err != nil || wrote != n {
			t.Fatalf("FrameWriter.Write = %d, %v (want %d)", wrote, err, n)
		}
		off += n
	}

	got, err := io.ReadAll(NewFrameReader(bytes.NewReader(framed.Bytes())))
	if err != nil {
		t.Fatalf("FrameReader: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("FrameReader payload mismatch")
	}

	// The verifying reader must pass the encoded stream through intact.
	passed, err := io.ReadAll(NewVerifyingReader(bytes.NewReader(framed.Bytes())))
	if err != nil {
		t.Fatalf("VerifyingReader: %v", err)
	}
	if !bytes.Equal(passed, framed.Bytes()) {
		t.Fatal("VerifyingReader altered the encoded stream")
	}
}

// TestFrameDetectsCorruption flips one payload byte and expects
// ErrChecksum from both scanners, after any clean prefix.
func TestFrameDetectsCorruption(t *testing.T) {
	payload := make([]byte, 2*MaxFramePayload)
	for i := range payload {
		payload[i] = byte(i)
	}
	var framed bytes.Buffer
	if _, err := NewFrameWriter(&framed).Write(payload); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), framed.Bytes()...)
	// Corrupt a byte inside the second frame's payload.
	bad[FrameHeaderLen+MaxFramePayload+FrameHeaderLen+10] ^= 0xFF

	for _, tc := range []struct {
		name string
		r    io.Reader
	}{
		{"FrameReader", NewFrameReader(bytes.NewReader(bad))},
		{"VerifyingReader", NewVerifyingReader(bytes.NewReader(bad))},
	} {
		got, err := io.ReadAll(tc.r)
		if !errors.Is(err, ErrChecksum) {
			t.Errorf("%s: err = %v, want ErrChecksum", tc.name, err)
		}
		if len(got) == 0 {
			t.Errorf("%s: clean first frame was withheld", tc.name)
		}
	}
}

// TestFrameDetectsBadLength rejects out-of-range length fields as
// corruption, not as a huge allocation or a hang.
func TestFrameDetectsBadLength(t *testing.T) {
	for _, hdr := range [][]byte{
		{0, 0, 0, 0, 0, 0, 0, 0},             // zero length
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, // 4 GiB length
	} {
		_, err := io.ReadAll(NewFrameReader(bytes.NewReader(hdr)))
		if !errors.Is(err, ErrChecksum) {
			t.Errorf("length %x: err = %v, want ErrChecksum", hdr[:4], err)
		}
	}
}

// TestFrameTornStream distinguishes a mid-frame tear (a transport
// event, io.ErrUnexpectedEOF) from detected corruption.
func TestFrameTornStream(t *testing.T) {
	var framed bytes.Buffer
	if _, err := NewFrameWriter(&framed).Write(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	torn := framed.Bytes()[:framed.Len()-100]
	_, err := io.ReadAll(NewFrameReader(bytes.NewReader(torn)))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn payload: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if errors.Is(err, ErrChecksum) {
		t.Fatal("a torn stream must not be reported as corruption")
	}

	// A tear inside the 8-byte frame header is the same transport event.
	_, err = io.ReadAll(NewFrameReader(bytes.NewReader(framed.Bytes()[:3])))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn header: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestFrameHeaderIsTheFrameWritersHeader: storage that stamps frames
// in place must produce the header the stream encoder would.
func TestFrameHeaderIsTheFrameWritersHeader(t *testing.T) {
	for _, n := range []int{1, 9, MaxFramePayload - 1, MaxFramePayload} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*7 + n)
		}
		var framed bytes.Buffer
		if _, err := NewFrameWriter(&framed).Write(payload); err != nil {
			t.Fatal(err)
		}
		hdr := FrameHeader(payload)
		if !bytes.Equal(hdr[:], framed.Bytes()[:FrameHeaderLen]) {
			t.Fatalf("payload of %d bytes: FrameHeader %x, FrameWriter %x", n, hdr, framed.Bytes()[:FrameHeaderLen])
		}
	}
}
