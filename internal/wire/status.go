package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// TypeStatus asks a sink for its report of one session: the header's
// session id, trace id and resume offset name the session (a resume
// offset of math.MaxInt64 names the transfer's digest verdict). The
// sink answers, once it has the report, with a TypeStatus header and
// one StatusLen-byte record, then closes; a depot that runs no sink
// refuses. A report still to come is answered VerdictPending once the
// sink's wait runs out, and the sender asks again. The sender learns
// what landed without a channel back through the depots.
const TypeStatus uint16 = 10

// StatusLen is the size of a status record: the acked end (8 bytes,
// big endian), the verdict (1), the checked flag (1) and 6 zero bytes.
const StatusLen = 16

// Verdict is how a sink's session ended, by the class of its error.
type Verdict uint8

// Verdicts a status record carries.
const (
	VerdictOK        Verdict = iota // every byte verified
	VerdictDigest                   // the object's SHA-256 differs (wire.ErrDigest)
	VerdictChecksum                 // a chunk frame failed its CRC (wire.ErrChecksum)
	VerdictTransient                // the session tore: retry from the acked end
	VerdictFatal                    // the payload is wrong: do not retry
	VerdictPending                  // no report yet: End is verified so far, ask again
	numVerdicts
)

// Status is a sink's report of one session as it travels back to the
// sender: End is the absolute offset the session verified up to, and
// Checked marks the session that reached the object's digest verdict.
type Status struct {
	End     int64
	Verdict Verdict
	Checked bool
}

// StatusOf records a session that verified up to end and ended with
// err; fatal says how the retry policy classifies err.
func StatusOf(end int64, checked bool, err error, fatal bool) Status {
	st := Status{End: end, Checked: checked}
	switch {
	case err == nil:
	case errors.Is(err, ErrDigest):
		st.Verdict = VerdictDigest
	case errors.Is(err, ErrChecksum):
		st.Verdict = VerdictChecksum
	case fatal:
		st.Verdict = VerdictFatal
	default:
		st.Verdict = VerdictTransient
	}
	return st
}

// errSinkRejected is a fatal verdict's error: no marker of a path
// event, so the retry policy classifies it fatal.
var errSinkRejected = errors.New("wire: sink rejected the payload")

// Err is the error the verdict stands for, of the class the sink's own
// error had: a torn session reads as io.ErrUnexpectedEOF, and a report
// still pending as a timeout.
func (s Status) Err() error {
	switch s.Verdict {
	case VerdictDigest:
		return fmt.Errorf("sink: %w", ErrDigest)
	case VerdictChecksum:
		return fmt.Errorf("sink: %w", ErrChecksum)
	case VerdictTransient:
		return fmt.Errorf("sink: session torn: %w", io.ErrUnexpectedEOF)
	case VerdictFatal:
		return errSinkRejected
	case VerdictPending:
		return fmt.Errorf("sink: report pending: %w", os.ErrDeadlineExceeded)
	}
	return nil
}

// AppendStatus appends s's record to b.
func AppendStatus(b []byte, s Status) []byte {
	var rec [StatusLen]byte
	binary.BigEndian.PutUint64(rec[:8], uint64(s.End))
	rec[8] = byte(s.Verdict)
	if s.Checked {
		rec[9] = 1
	}
	return append(b, rec[:]...)
}

// ParseStatus decodes one record. A negative end, an unknown verdict,
// a checked flag other than 0 or 1, or nonzero padding is malformed.
func ParseStatus(b []byte) (Status, error) {
	if len(b) != StatusLen {
		return Status{}, fmt.Errorf("%w: status record of %d bytes", ErrBadOption, len(b))
	}
	s := Status{End: int64(binary.BigEndian.Uint64(b[:8])), Verdict: Verdict(b[8]), Checked: b[9] == 1}
	if s.End < 0 || s.Verdict >= numVerdicts || b[9] > 1 || binary.BigEndian.Uint64(b[8:])&0xffffffffffff != 0 {
		return Status{}, fmt.Errorf("%w: malformed status record", ErrBadOption)
	}
	return s, nil
}

// ReadStatus reads one record from r.
func ReadStatus(r io.Reader) (Status, error) {
	var rec [StatusLen]byte
	if _, err := io.ReadFull(r, rec[:]); err != nil {
		return Status{}, fmt.Errorf("wire: status record: %w", err)
	}
	return ParseStatus(rec[:])
}
