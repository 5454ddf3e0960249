package wire

import (
	"bytes"
	"testing"
)

func TestPathIndexRoundTrip(t *testing.T) {
	for _, tc := range []struct{ index, count uint16 }{
		{0, 1}, {0, 2}, {1, 2}, {7, 8}, {0, 65535}, {65534, 65535},
	} {
		i, n, err := ParsePathIndex(PathIndexOption(tc.index, tc.count))
		if err != nil {
			t.Fatalf("ParsePathIndex(%d,%d): %v", tc.index, tc.count, err)
		}
		if i != tc.index || n != tc.count {
			t.Fatalf("round trip (%d,%d) != (%d,%d)", i, n, tc.index, tc.count)
		}
	}
}

func TestParsePathOptionsMalformed(t *testing.T) {
	for _, o := range []Option{
		{Kind: OptStripeIndex, Data: make([]byte, 4)}, // wrong kind
		{Kind: OptPathIndex, Data: make([]byte, 3)},   // short
		{Kind: OptPathIndex, Data: make([]byte, 5)},   // long
		{Kind: OptPathIndex},                          // empty
		PathIndexOption(0, 0),                         // zero count
		PathIndexOption(2, 2),                         // index == count
		PathIndexOption(9, 2),                         // index > count
	} {
		if _, _, err := ParsePathIndex(o); err == nil {
			t.Errorf("ParsePathIndex accepted kind=%d data=%x", o.Kind, o.Data)
		}
	}
}

// TestHeaderPathOptionsDegradeToSinglePath exercises the degradation
// contract: any malformed path option reads as absent through the
// header accessors, so a depot treats the session as ordinary
// single-path traffic instead of refusing it.
func TestHeaderPathOptionsDegradeToSinglePath(t *testing.T) {
	h := &Header{Version: Version1, Type: TypeData}
	if h.PathCount() != 1 || h.PathIndex() != 0 {
		t.Fatalf("bare header: count=%d index=%d, want 1/0", h.PathCount(), h.PathIndex())
	}

	h.Options = []Option{PathIndexOption(2, 4)}
	raw, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Header
	if err := back.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if back.PathCount() != 4 || back.PathIndex() != 2 {
		t.Fatalf("path coordinate after round trip = %d/%d, want 2/4", back.PathIndex(), back.PathCount())
	}

	for _, opts := range [][]Option{
		{{Kind: 19, Data: make([]byte, 3)}, {Kind: OptPathIndex, Data: []byte{1}}},
		{PathIndexOption(0, 0)},
		{PathIndexOption(5, 5)},
	} {
		h := &Header{Version: Version1, Type: TypeData, Options: opts}
		raw, err := h.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Header
		if err := back.UnmarshalBinary(raw); err != nil {
			t.Fatal(err)
		}
		if back.PathCount() != 1 || back.PathIndex() != 0 {
			t.Errorf("malformed %x: count=%d index=%d, want single-path 1/0",
				opts, back.PathCount(), back.PathIndex())
		}
	}
}

// TestPathOptionsForwardedUntouched checks that a depot re-marshalling
// a header preserves the path option byte-for-byte (the forwarding
// path rewrites the source route but must not disturb path identity),
// and an option of the reserved kind 19 beside it.
func TestPathOptionsForwardedUntouched(t *testing.T) {
	h := &Header{Version: Version1, Type: TypeData, Options: []Option{
		{Kind: 19, Data: make([]byte, 16)},
		PathIndexOption(1, 3),
	}}
	raw, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Header
	if err := back.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	re, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, re) {
		t.Fatal("header with path options did not re-marshal byte-for-byte")
	}
}
