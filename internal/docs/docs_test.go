package docs

import (
	"os"
	"path/filepath"
	"testing"
)

// repoRoot walks up from the test's working directory (internal/docs)
// to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(filepath.Dir(wd))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("no go.mod two levels above %s", wd)
	}
	return root
}

// TestExportedIdentifiersAreDocumented is the godoc-coverage gate for
// the protocol-facing and data-path packages: a missing doc comment on
// an exported identifier in wire, schedule, retry, graph, ctl, obs,
// fairshare, loadgen, depot, cache, core, or lsl fails the build.
func TestExportedIdentifiersAreDocumented(t *testing.T) {
	root := repoRoot(t)
	for _, pkg := range []string{"wire", "schedule", "retry", "graph", "ctl", "obs", "fairshare", "loadgen", "depot", "cache", "core", "lsl"} {
		t.Run(pkg, func(t *testing.T) {
			missing, err := MissingDocs(filepath.Join(root, "internal", pkg))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range missing {
				t.Errorf("internal/%s/%s has no doc comment", pkg, m)
			}
		})
	}
}

// TestMarkdownLinksResolve checks every relative link in the top-level
// documentation and docs/ tree against the filesystem.
func TestMarkdownLinksResolve(t *testing.T) {
	root := repoRoot(t)
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"}
	entries, err := os.ReadDir(filepath.Join(root, "docs"))
	if err == nil {
		for _, e := range entries {
			if !e.IsDir() && filepath.Ext(e.Name()) == ".md" {
				files = append(files, filepath.Join("docs", e.Name()))
			}
		}
	}
	for _, f := range files {
		path := filepath.Join(root, f)
		if _, err := os.Stat(path); err != nil {
			continue // optional file
		}
		broken, err := BrokenLinks(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range broken {
			t.Errorf("broken link in %s", b)
		}
	}
}

// TestCheckerCatchesMissingDocs guards the checker itself: a synthetic
// package with documented and undocumented exported identifiers must
// yield exactly the undocumented ones.
func TestCheckerCatchesMissingDocs(t *testing.T) {
	dir := t.TempDir()
	src := `package sample

// Documented has a doc comment.
func Documented() {}

func Undocumented() {}

// Grouped constants share the block comment.
const (
	A = 1
	B = 2
)

var Naked = 3

type Bare struct{}

func (Bare) Method() {}

type hidden struct{}

func (hidden) Exported() {}
`
	if err := os.WriteFile(filepath.Join(dir, "sample.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	missing, err := MissingDocs(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"Undocumented": false, "Naked": false, "Bare": false, "Method": false}
	if len(missing) != len(want) {
		t.Fatalf("missing = %v, want exactly %d entries", missing, len(want))
	}
	for _, m := range missing {
		found := false
		for name := range want {
			if len(m) >= len(name) && m[len(m)-len(name):] == name {
				want[name], found = true, true
			}
		}
		if !found {
			t.Errorf("unexpected finding %q", m)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("checker missed %s", name)
		}
	}
}

// TestCheckerCatchesBrokenLinks guards the link checker with a
// synthetic markdown file.
func TestCheckerCatchesBrokenLinks(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "real.md"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	md := `[ok](real.md) [anchored](real.md#sec) [web](https://example.com/x) [page](#local) [gone](missing.md)`
	path := filepath.Join(dir, "index.md")
	if err := os.WriteFile(path, []byte(md), 0o644); err != nil {
		t.Fatal(err)
	}
	broken, err := BrokenLinks(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 1 || broken[0] != "index.md: missing.md" {
		t.Fatalf("broken = %v, want exactly [index.md: missing.md]", broken)
	}
}

// TestNonTestLOCWithinCeilings is the code-size ratchet: every
// directory loc-ceilings.txt lists stays at or under its ceiling.
func TestNonTestLOCWithinCeilings(t *testing.T) {
	root := repoRoot(t)
	over, err := OverCeilings(root, filepath.Join(root, "loc-ceilings.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range over {
		t.Errorf("%s (lower the code, or raise the ceiling in a reviewed change)", o)
	}
}

// TestCeilingCheckCatchesOverage guards the ratchet itself: a package
// one line over its ceiling is reported, one at its ceiling is not, and
// test files do not count.
func TestCeilingCheckCatchesOverage(t *testing.T) {
	root := t.TempDir()
	for _, pkg := range []string{"a", "b"} {
		if err := os.Mkdir(filepath.Join(root, pkg), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, pkg, "x.go"), []byte("package x\n\nvar X = 1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, pkg, "x_test.go"), []byte("package x\n\n\n\n\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ceilings := filepath.Join(root, "ceilings.txt")
	if err := os.WriteFile(ceilings, []byte("# seeded\na 3\nb 2 # one line over\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	over, err := OverCeilings(root, ceilings)
	if err != nil {
		t.Fatal(err)
	}
	if len(over) != 1 || over[0] != "b: 3 lines > ceiling 2" {
		t.Fatalf("over = %v, want exactly [b: 3 lines > ceiling 2]", over)
	}
}
