package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: github.com/netlogistics/lsl/internal/depot
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPump-4      	     939	   1246676 ns/op	6729.16 MB/s	 4268204 B/op	     271 allocs/op
BenchmarkPump-4      	     964	   1230579 ns/op	6817.19 MB/s	 4268101 B/op	     270 allocs/op
BenchmarkFairShare   	     500	   2384086 ns/op	3518.58 MB/s
PASS
ok  	github.com/netlogistics/lsl/internal/depot	2.310s
`
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got["BenchmarkPump"]) != 2 || got["BenchmarkPump"][0] != 1246676 {
		t.Fatalf("BenchmarkPump samples = %v", got["BenchmarkPump"])
	}
	if len(got["BenchmarkFairShare"]) != 1 {
		t.Fatalf("BenchmarkFairShare samples = %v", got["BenchmarkFairShare"])
	}
}

// TestMannWhitneyExact checks the exact test against known anchors.
func TestMannWhitneyExact(t *testing.T) {
	// Complete separation at n=6,6: U=0, exact two-sided p = 2/C(12,6)
	// ≈ 0.00216.
	a := []float64{1, 2, 3, 4, 5, 6}
	b := []float64{10, 11, 12, 13, 14, 15}
	if p := mannWhitneyP(a, b); math.Abs(p-2.0/924) > 1e-9 {
		t.Fatalf("separated samples p = %v, want %v", p, 2.0/924)
	}
	// Identical samples: maximally tied, p must not reject.
	c := []float64{5, 5, 5}
	if p := mannWhitneyP(c, c); p < 0.99 {
		t.Fatalf("identical samples p = %v, want ≈1", p)
	}
}

// bench renders n runs of one benchmark at the given ns/op values.
func bench(name string, ns ...float64) string {
	var sb strings.Builder
	for _, v := range ns {
		fmt.Fprintf(&sb, "%s-4\t100\t%.0f ns/op\n", name, v)
	}
	return sb.String()
}

func samples(t *testing.T, out string) map[string][]float64 {
	t.Helper()
	m, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGateFailsOnPumpSlowdown is the gate's acceptance case: a
// consistent 20% pump slowdown with realistic run-to-run jitter must
// be flagged as a regression.
func TestGateFailsOnPumpSlowdown(t *testing.T) {
	base := samples(t, bench("BenchmarkPump", 1000, 1010, 990, 1005, 995, 1002))
	head := samples(t, bench("BenchmarkPump", 1200, 1215, 1190, 1205, 1195, 1210))
	res := compare(base, head, 0.10, 0.05)
	if len(res) != 1 || !res[0].Regression {
		t.Fatalf("20%% slowdown not flagged: %+v", res)
	}
	if res[0].Status != "regression" {
		t.Fatalf("status = %q", res[0].Status)
	}
}

// TestGatePassesOnNoise: jitter within the threshold must pass even
// when medians differ a little.
func TestGatePassesOnNoise(t *testing.T) {
	base := samples(t, bench("BenchmarkPump", 1000, 1020, 980, 1010, 990, 1000))
	head := samples(t, bench("BenchmarkPump", 1030, 1010, 1050, 990, 1020, 1040))
	res := compare(base, head, 0.10, 0.05)
	if res[0].Regression {
		t.Fatalf("3%% drift flagged as regression: %+v", res[0])
	}
}

// TestGateIgnoresLargeButInsignificantSlowdown: one wild head sample
// should not fail the gate when the runs are statistically
// indistinguishable.
func TestGateIgnoresLargeButInsignificantSlowdown(t *testing.T) {
	base := samples(t, bench("BenchmarkPump", 1000, 1400))
	head := samples(t, bench("BenchmarkPump", 1500, 1100))
	res := compare(base, head, 0.10, 0.05)
	if res[0].Regression {
		t.Fatalf("two overlapping samples flagged: %+v", res[0])
	}
}

// TestGateToleratesNewAndRemovedBenchmarks: a benchmark only the head
// has (freshly added) or only the base has (deleted) is recorded but
// never fails the gate.
func TestGateToleratesNewAndRemovedBenchmarks(t *testing.T) {
	base := samples(t, bench("BenchmarkOld", 1000, 1000, 1000))
	head := samples(t, bench("BenchmarkNew", 999, 1001, 1000))
	res := compare(base, head, 0.10, 0.05)
	if len(res) != 2 {
		t.Fatalf("results = %+v", res)
	}
	for _, r := range res {
		if r.Regression {
			t.Fatalf("one-sided benchmark failed the gate: %+v", r)
		}
	}
	byName := map[string]string{}
	for _, r := range res {
		byName[r.Name] = r.Status
	}
	if byName["BenchmarkNew"] != "head-only" || byName["BenchmarkOld"] != "base-only" {
		t.Fatalf("statuses = %v", byName)
	}
}

// TestGateReportsImprovement: a significant speedup is labelled, not
// just silently passed.
func TestGateReportsImprovement(t *testing.T) {
	base := samples(t, bench("BenchmarkPump", 1200, 1215, 1190, 1205, 1195, 1210))
	head := samples(t, bench("BenchmarkPump", 1000, 1010, 990, 1005, 995, 1002))
	res := compare(base, head, 0.10, 0.05)
	if res[0].Status != "improvement" || res[0].Regression {
		t.Fatalf("speedup labelled %q", res[0].Status)
	}
}

func TestRender(t *testing.T) {
	base := samples(t, bench("BenchmarkPump", 1000, 1000, 1000))
	head := samples(t, bench("BenchmarkPump", 1001, 1001, 1001))
	out := render(compare(base, head, 0.10, 0.05), 0.10, 0.05)
	for _, want := range []string{"BenchmarkPump", "ratio", "ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestReadSet(t *testing.T) {
	set, err := readSet(strings.NewReader("# guarded\n\n./a/ BenchmarkX$|BenchmarkY$ 100x\n. BenchmarkZ$ # default benchtime\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []guarded{{"./a/", "BenchmarkX$|BenchmarkY$", "100x"}, {".", "BenchmarkZ$", ""}}
	if len(set) != 2 || set[0] != want[0] || set[1] != want[1] {
		t.Fatalf("set = %+v, want %+v", set, want)
	}
	if _, err := readSet(strings.NewReader("./a/\n")); err == nil {
		t.Fatal("a line with no benchmark regexp was accepted")
	}
}

// TestSampleInterleavesBaseAndHead samples a one-benchmark module
// against itself: both sides get -count samples, a benchmark only the
// head has is sampled head-only, and the runs alternate — each round
// both sides, the side that goes first changing from round to round.
func TestSampleInterleavesBaseAndHead(t *testing.T) {
	if testing.Short() {
		t.Skip("builds test binaries")
	}
	module := func(extra string) string {
		dir := t.TempDir()
		write := func(name, body string) {
			if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write("go.mod", "module sampled\n\ngo 1.22\n")
		write("bench/guarded.txt", "./p/ BenchmarkSpin$|BenchmarkNew$ 10x\n")
		write("p/p_test.go", `package p

import (
	"fmt"
	"os"
	"testing"
	"time"
)

func mark(b *testing.B) {
	dir, _ := os.Getwd()
	f, _ := os.OpenFile(os.Getenv("SAMPLE_LOG"), os.O_APPEND|os.O_WRONLY|os.O_CREATE, 0o644)
	fmt.Fprintln(f, os.Getpid(), dir)
	f.Close()
	for i := 0; i < b.N; i++ {
		time.Sleep(time.Microsecond)
	}
}

func BenchmarkSpin(b *testing.B) { mark(b) }
`+extra)
		return dir
	}
	base, head := module(""), module("func BenchmarkNew(b *testing.B) { mark(b) }\n")
	log := filepath.Join(t.TempDir(), "order")
	t.Setenv("SAMPLE_LOG", log)
	var baseOut, headOut strings.Builder
	if err := sample(base, head, "bench/guarded.txt", 3, &baseOut, &headOut); err != nil {
		t.Fatal(err)
	}
	b, h := samples(t, baseOut.String()), samples(t, headOut.String())
	if len(b["BenchmarkSpin"]) != 3 || len(h["BenchmarkSpin"]) != 3 || len(h["BenchmarkNew"]) != 3 || len(b["BenchmarkNew"]) != 0 {
		t.Fatalf("base samples %v, head samples %v; want 3 of Spin each and 3 of New at the head", b, h)
	}
	for _, r := range compare(b, h, 0.10, 0.05) {
		if r.Name == "BenchmarkNew" && r.Status != "head-only" {
			t.Fatalf("BenchmarkNew: %+v", r)
		}
	}
	// Every run logged its process and the checkout it ran in.
	order, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	var turns []string
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(order)), "\n") {
		pid, dir, _ := strings.Cut(line, " ")
		if seen[pid] {
			continue
		}
		seen[pid] = true
		if strings.HasPrefix(dir, base) {
			turns = append(turns, "base")
		} else {
			turns = append(turns, "head")
		}
	}
	if got, want := strings.Join(turns, " "), "base head head base base head"; got != want {
		t.Fatalf("runs went %q, want %q", got, want)
	}
}
