package experiments

import (
	"strings"
	"testing"
)

// TestIntegritySweepRecovers is the acceptance gate for the integrity
// subsystem: corruption injected at each relay in turn must be detected
// at that hop (checksum errors counted, a retry burned) and the
// transfer must still deliver the full object, while the clean baseline
// counts no errors at all.
func TestIntegritySweepRecovers(t *testing.T) {
	cfg := DefaultIntegrity()
	cfg.Size = 64 << 10
	cfg.CorruptAt = 16 << 10
	rows, err := Integrity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if !r.Recovered || r.Bytes != cfg.Size {
			t.Fatalf("%s: recovered=%v bytes=%d, want full delivery", r.Hop, r.Recovered, r.Bytes)
		}
		if r.Hop == "none" {
			if r.Injected != 0 || r.ChecksumErrors != 0 || r.DigestMismatch != 0 {
				t.Fatalf("baseline counted errors: %+v", r)
			}
			continue
		}
		if r.Injected != 1 {
			t.Fatalf("%s: injected = %d, want 1", r.Hop, r.Injected)
		}
		if r.ChecksumErrors < 1 {
			t.Fatalf("%s: checksum errors = %d, want >= 1", r.Hop, r.ChecksumErrors)
		}
		if r.Retries < 1 {
			t.Fatalf("%s: retries = %d, want >= 1", r.Hop, r.Retries)
		}
	}
	out := integrityTable(rows).Text()
	if !strings.Contains(out, "PASS") {
		t.Fatalf("verdict not PASS:\n%s", out)
	}
}
