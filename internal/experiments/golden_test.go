//go:build golden

package experiments

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden")

const goldenPath = "testdata/experiments.golden"

// TestGolden runs every registry entry that "all" runs and that is
// simulated end to end (no Emu), at DefaultParams, and compares the
// text output byte for byte with testdata/experiments.golden. Emu
// entries read the wall clock and stay out until the emulated stack
// runs in virtual time.
//
//	go test -tags golden ./internal/experiments -run TestGolden          # check
//	go test -tags golden ./internal/experiments -run TestGolden -update  # regenerate
func TestGolden(t *testing.T) {
	var got bytes.Buffer
	for _, e := range registry {
		if len(e.Ids) == 0 || e.Emu {
			continue
		}
		tables, err := e.Run(DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, tb := range tables {
			got.WriteString(tb.Text())
			got.WriteByte('\n')
		}
	}
	if *update {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	g, w := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		if i >= len(g) || i >= len(w) || !bytes.Equal(g[i], w[i]) {
			t.Fatalf("%s differs first at line %d (rerun with -update and diff):\n got %q\nwant %q",
				goldenPath, i+1, line(g, i), line(w, i))
		}
	}
}

func line(lines [][]byte, i int) []byte {
	if i < len(lines) {
		return lines[i]
	}
	return nil
}
