package main

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/netlogistics/lsl/internal/stats"
)

func writeRoster(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "roster.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadRoster(t *testing.T) {
	path := writeRoster(t, `
# the mesh
src 198.51.100.2:7411
relay 198.51.100.3:7411 depot
probe-only 198.51.100.4:7411 nopush
`)
	roster, err := loadRoster(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(roster) != 3 {
		t.Fatalf("parsed %d entries, want 3", len(roster))
	}
	if roster[0].name != "src" || roster[0].depot || !roster[0].push {
		t.Fatalf("entry 0 = %+v", roster[0])
	}
	if !roster[1].depot || !roster[1].push {
		t.Fatalf("entry 1 = %+v", roster[1])
	}
	if roster[2].depot || roster[2].push {
		t.Fatalf("entry 2 = %+v", roster[2])
	}
	if roster[1].addr.String() != "198.51.100.3:7411" {
		t.Fatalf("entry 1 addr = %s", roster[1].addr)
	}
}

func TestLoadRosterRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"bad role":       "a 198.51.100.2:7411 relay\nb 198.51.100.3:7411",
		"bad address":    "a nowhere\nb 198.51.100.3:7411",
		"duplicate host": "a 198.51.100.2:7411\na 198.51.100.3:7411",
		"too few hosts":  "a 198.51.100.2:7411",
		"extra fields":   "a 198.51.100.2:7411 depot extra\nb 198.51.100.3:7411",
	}
	for name, content := range cases {
		if _, err := loadRoster(writeRoster(t, content)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

// TestParseSize holds the -probe sizes lsl-ctl takes through the shared
// parser: whole byte counts and K/M/G multiples, nothing below one.
func TestParseSize(t *testing.T) {
	for spec, want := range map[string]int64{"256K": 256 << 10, "1M": 1 << 20, "2G": 2 << 30, "512": 512} {
		got, err := stats.ParseSize(spec)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", spec, got, err, want)
		}
	}
	for _, spec := range []string{"", "-1", "0", "xK"} {
		if _, err := stats.ParseSize(spec); err == nil {
			t.Errorf("ParseSize(%q) succeeded", spec)
		}
	}
}
