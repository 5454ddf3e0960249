package experiments

import (
	"strings"
	"testing"
)

// TestCacheOffloadAcceptance runs the subsystem's acceptance sweep
// in-repo: warm must be a full cache hit at ≥2x the cold bandwidth,
// and the tamper run must fall back to the origin with the sink digest
// verifying throughout.
func TestCacheOffloadAcceptance(t *testing.T) {
	rows, err := CacheOffload(CacheOffloadConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	byPhase := make(map[string]CacheOffloadRow, 3)
	for _, r := range rows {
		if !r.Delivered {
			t.Fatalf("phase %s did not deliver: %+v", r.Phase, r)
		}
		if r.Digest != 0 {
			t.Fatalf("phase %s digest mismatches: %+v", r.Phase, r)
		}
		byPhase[r.Phase] = r
	}
	cold, warm, tamper := byPhase["cold"], byPhase["warm"], byPhase["tamper"]
	if cold.Holder != "" || cold.OriginBytes != cold.Bytes {
		t.Fatalf("cold run not all-origin: %+v", cold)
	}
	if warm.OriginBytes != 0 || warm.CachedBytes != warm.Bytes || warm.Holder == "" {
		t.Fatalf("warm run not a full cache hit: %+v", warm)
	}
	if warm.Mbps < 2*cold.Mbps {
		t.Fatalf("warm bandwidth %.2f Mbps < 2x cold %.2f Mbps", warm.Mbps, cold.Mbps)
	}
	if tamper.OriginBytes == 0 || tamper.Fallbacks < 1 {
		t.Fatalf("tamper run did not fall back to origin: %+v", tamper)
	}
	out := cacheOffloadTable(rows).Text()
	if !strings.Contains(out, "verdict: PASS") {
		t.Fatalf("formatted sweep did not pass:\n%s", out)
	}
}
