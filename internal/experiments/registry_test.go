package experiments

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// designIndex reads DESIGN.md §4's per-experiment table: each row's id
// and the lsl-exp names its regeneration target gives.
func designIndex(t *testing.T) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "## 4.")
	end := strings.Index(doc, "## 5.")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §4")
	}
	name := regexp.MustCompile("`lsl-exp ([a-z0-9-]+)")
	index := make(map[string][]string)
	for _, line := range strings.Split(doc[start:end], "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.TrimSpace(cells[1]) == "Id" || strings.HasPrefix(strings.TrimSpace(cells[1]), "---") {
			continue
		}
		id := strings.TrimSpace(cells[1])
		index[id] = nil
		for _, m := range name.FindAllStringSubmatch(line, -1) {
			index[id] = append(index[id], m[1])
		}
	}
	if len(index) == 0 {
		t.Fatal("DESIGN.md §4 has no rows")
	}
	return index
}

// TestRegistryMatchesDesignIndex holds the registry and DESIGN.md §4
// to each other: every lsl-exp name the index gives resolves to the
// entry claiming that row, and every §4 id belongs to exactly one
// entry, which "all" runs.
func TestRegistryMatchesDesignIndex(t *testing.T) {
	index := designIndex(t)
	owner := make(map[string]string)
	for _, e := range registry {
		for _, id := range e.Ids {
			if _, ok := index[id]; !ok {
				t.Errorf("entry %s claims %s, which DESIGN.md §4 does not list", e.Name, id)
			}
			if prev, dup := owner[id]; dup {
				t.Errorf("%s is claimed by both %s and %s", id, prev, e.Name)
			}
			owner[id] = e.Name
		}
	}
	all, err := Lookup("all")
	if err != nil {
		t.Fatal(err)
	}
	runs := make(map[string]bool)
	for _, e := range all {
		runs[e.Name] = true
	}
	for id, names := range index {
		if owner[id] == "" {
			t.Errorf("DESIGN.md §4 row %s has no registry entry", id)
		}
		if !runs[owner[id]] {
			t.Errorf("all does not run %s's entry %s", id, owner[id])
		}
		if len(names) == 0 {
			t.Errorf("DESIGN.md §4 row %s names no lsl-exp target", id)
		}
		for _, n := range names {
			es, err := Lookup(n)
			if err != nil || len(es) != 1 || es[0].Name != owner[id] {
				t.Errorf("§4 row %s: lsl-exp %s does not resolve to its entry %s", id, n, owner[id])
			}
		}
	}
}

// TestRegistryAcceptsEveryName keeps every name lsl-exp has accepted
// resolvable, and every name and alias unique.
func TestRegistryAcceptsEveryName(t *testing.T) {
	for _, name := range []string{
		"rtts", "trees", "fig2", "fig3", "fig4", "fig5", "fig9", "fig10", "pct", "fig11",
		"striping", "multipath", "fairness", "loadgen", "robustness", "integrity", "cacheoffload",
		"ablate", "nws", "matrix", "matrix-twopath", "matrix-planetlab", "matrix-abilene",
		"weather", "weather-twopath", "weather-planetlab", "weather-abilene", "all",
	} {
		if _, err := Lookup(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := Lookup("fig12"); err == nil {
		t.Error("unknown name resolved")
	}
	seen := make(map[string]bool)
	for _, e := range registry {
		for _, n := range append([]string{e.Name}, e.Aliases...) {
			if seen[n] || n == "all" {
				t.Errorf("name %q registered twice", n)
			}
			seen[n] = true
		}
		if e.Doc == "" || e.Run == nil {
			t.Errorf("entry %s lacks a Doc or Run", e.Name)
		}
	}
}

// TestCLIDocListsUsage keeps docs/CLI.md's lsl-exp list equal to the
// generated usage text.
func TestCLIDocListsUsage(t *testing.T) {
	doc, err := os.ReadFile("../../docs/CLI.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), "```\n"+Usage()+"```\n") {
		t.Fatalf("docs/CLI.md does not list the usage text verbatim:\n%s", Usage())
	}
}
