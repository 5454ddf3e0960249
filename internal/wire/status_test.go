package wire_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"

	"github.com/netlogistics/lsl/internal/retry"
	"github.com/netlogistics/lsl/internal/wire"
)

// TestStatusRoundTrip carries the sink's own errors through a status
// record: the decoded error keeps wire.ErrDigest and wire.ErrChecksum
// for errors.Is, and the retry policy classifies it exactly as it
// classifies the error the sink saw.
func TestStatusRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"clean", nil},
		{"digest", fmt.Errorf("%w: object sha256 differs", wire.ErrDigest)},
		{"checksum", fmt.Errorf("frame 3: %w", wire.ErrChecksum)},
		{"torn frame", io.ErrUnexpectedEOF},
		{"reset", &net.OpError{Op: "read", Err: syscall.ECONNRESET}},
		{"pattern", errors.New("depot: pattern mismatch at offset 12")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := wire.StatusOf(1<<40+7, tc.err != nil, tc.err, retry.IsFatal(tc.err))
			rec := wire.AppendStatus(nil, in)
			if len(rec) != wire.StatusLen {
				t.Fatalf("record of %d bytes, want %d", len(rec), wire.StatusLen)
			}
			out, err := wire.ReadStatus(bytes.NewReader(rec))
			if err != nil || out != in {
				t.Fatalf("round trip = %+v, %v; want %+v", out, err, in)
			}
			got := out.Err()
			if (got == nil) != (tc.err == nil) {
				t.Fatalf("decoded error %v for %v", got, tc.err)
			}
			for _, sentinel := range []error{wire.ErrDigest, wire.ErrChecksum} {
				if errors.Is(got, sentinel) != errors.Is(tc.err, sentinel) {
					t.Fatalf("decoded %v: errors.Is(%v) differs from the sink's %v", got, sentinel, tc.err)
				}
			}
			if tc.err != nil && retry.Classify(got) != retry.Classify(tc.err) {
				t.Fatalf("decoded %v classified %v, the sink's %v %v", got, retry.Classify(got), tc.err, retry.Classify(tc.err))
			}
		})
	}
}

// TestStatusPending: a pending record, the answer to a query whose
// report is still to come, round-trips and reads as a transient error.
func TestStatusPending(t *testing.T) {
	in := wire.Status{End: 4096, Verdict: wire.VerdictPending}
	out, err := wire.ParseStatus(wire.AppendStatus(nil, in))
	if err != nil || out != in {
		t.Fatalf("round trip = %+v, %v; want %+v", out, err, in)
	}
	if !retry.IsTransient(out.Err()) {
		t.Fatalf("pending reads as %v, classified %v; want transient", out.Err(), retry.Classify(out.Err()))
	}
}

// TestStatusMalformed: every field outside its domain is refused.
func TestStatusMalformed(t *testing.T) {
	good := wire.AppendStatus(nil, wire.Status{End: 9, Verdict: wire.VerdictOK, Checked: true})
	for name, mangle := range map[string]func([]byte) []byte{
		"short":           func(b []byte) []byte { return b[:wire.StatusLen-1] },
		"long":            func(b []byte) []byte { return append(b, 0) },
		"negative end":    func(b []byte) []byte { b[0] = 0x80; return b },
		"unknown verdict": func(b []byte) []byte { b[8] = 200; return b },
		"checked flag 2":  func(b []byte) []byte { b[9] = 2; return b },
		"padding":         func(b []byte) []byte { b[15] = 1; return b },
	} {
		if _, err := wire.ParseStatus(mangle(append([]byte(nil), good...))); !errors.Is(err, wire.ErrBadOption) {
			t.Errorf("%s: err = %v, want wire.ErrBadOption", name, err)
		}
	}
}

// FuzzStatusRecord: the record parser never panics, an accepted record
// re-encodes to the bytes parsed, and its error is nil exactly for the
// OK verdict.
func FuzzStatusRecord(f *testing.F) {
	f.Add(wire.AppendStatus(nil, wire.Status{End: 1 << 20, Verdict: wire.VerdictDigest, Checked: true}))
	f.Add(wire.AppendStatus(nil, wire.Status{}))
	f.Add(wire.AppendStatus(nil, wire.Status{End: 7, Verdict: wire.VerdictPending}))
	f.Add(make([]byte, wire.StatusLen-1))
	f.Add(bytes.Repeat([]byte{0xff}, wire.StatusLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := wire.ParseStatus(data)
		if err != nil {
			return
		}
		if !bytes.Equal(wire.AppendStatus(nil, st), data) {
			t.Fatalf("accepted %x re-encodes differently", data)
		}
		if (st.Err() == nil) != (st.Verdict == wire.VerdictOK) {
			t.Fatalf("verdict %d has error %v", st.Verdict, st.Err())
		}
	})
}
