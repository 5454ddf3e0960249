// Command benchgate samples the guarded benchmark set at the PR base
// and head and fails when head shows a statistically significant
// throughput regression beyond a threshold. It is the CI perf gate;
// benchstat renders the human-readable comparison alongside it.
//
// Usage, from the root of the head checkout:
//
//	benchgate -base-dir ../base [-count 6] [-base base.txt] [-head head.txt] \
//	          [-threshold 0.10] [-alpha 0.05] [-json head.json]
//
// For every line of bench/guarded.txt benchgate builds the package's
// test binary in both checkouts and runs the two alternately, -count
// rounds, writing the `go test -bench` output of each side to -base and
// -head. Base and head samples are taken seconds apart, so the
// minutes-long speed drift of a shared machine cannot pass for a
// regression; there is no mode that compares files sampled one side
// after the other.
//
// For each benchmark sampled on both sides, benchgate takes the ns/op
// samples, tests base vs head with a two-sided Mann-Whitney U
// test (exact null distribution — no normality assumption, which
// -count=6 samples could not support), and declares a regression only
// when the median slowdown exceeds -threshold AND the difference is
// significant at -alpha. Benchmarks present on only one side (newly
// added or freshly deleted) are reported but never fail the gate.
//
// -json writes the head samples and per-benchmark verdicts as a
// machine-readable report, the BENCH_<sha>.json artifact CI uploads.
//
// Exit status: 0 when no benchmark regresses, 1 on regression, 2 on
// usage or parse errors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

var (
	baseDir   = flag.String("base-dir", "", "checkout of the PR base (required); the head is the working directory")
	count     = flag.Int("count", 6, "rounds of sampling: samples per benchmark and side")
	basePath  = flag.String("base", "base.txt", "where the bench output of the PR base goes")
	headPath  = flag.String("head", "head.txt", "where the bench output of the PR head goes")
	threshold = flag.Float64("threshold", 0.10, "maximum tolerated median slowdown (0.10 = 10%)")
	alpha     = flag.Float64("alpha", 0.05, "two-sided significance level for the Mann-Whitney test")
	jsonOut   = flag.String("json", "", "write the head samples and verdicts to this JSON file")
)

func main() {
	flag.Parse()
	if *baseDir == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -base-dir is required")
		os.Exit(2)
	}
	if err := sampleInto(*basePath, *headPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	base, err := parseFile(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	head, err := parseFile(*headPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	results := compare(base, head, *threshold, *alpha)
	fmt.Print(render(results, *threshold, *alpha))
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, head, results); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
	}
	for _, r := range results {
		if r.Regression {
			os.Exit(1)
		}
	}
}

// sampleInto fills the two bench output files with interleaved samples
// of both checkouts.
func sampleInto(basePath, headPath string) error {
	baseOut, err := os.Create(basePath)
	if err != nil {
		return err
	}
	defer baseOut.Close()
	headOut, err := os.Create(headPath)
	if err != nil {
		return err
	}
	defer headOut.Close()
	return sample(*baseDir, ".", "bench/guarded.txt", *count, baseOut, headOut)
}

// parseFile reads one `go test -bench` output file into per-benchmark
// ns/op samples.
func parseFile(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBench(f)
}

// parseBench extracts ns/op samples from `go test -bench` output,
// keyed by benchmark name with the -GOMAXPROCS suffix stripped so runs
// from differently sized machines still line up.
func parseBench(r io.Reader) (map[string][]float64, error) {
	out := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// BenchmarkName-8  <iters>  <value> ns/op  [more metrics...]
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad ns/op %q for %s", fields[i], name)
			}
			out[name] = append(out[name], v)
			break
		}
	}
	return out, sc.Err()
}

// Result is one benchmark's comparison verdict.
type Result struct {
	Name string `json:"name"`
	// BaseMedian and HeadMedian are ns/op.
	BaseMedian float64 `json:"base_median_ns,omitempty"`
	HeadMedian float64 `json:"head_median_ns,omitempty"`
	// Ratio is head/base median time: above 1 means head is slower.
	Ratio float64 `json:"ratio,omitempty"`
	// P is the two-sided Mann-Whitney p-value.
	P float64 `json:"p,omitempty"`
	// Status is "ok", "regression", "improvement", "base-only", or
	// "head-only".
	Status     string `json:"status"`
	Regression bool   `json:"regression"`
}

// compare produces one Result per benchmark seen on either side,
// sorted by name.
func compare(base, head map[string][]float64, threshold, alpha float64) []Result {
	names := map[string]bool{}
	for n := range base {
		names[n] = true
	}
	for n := range head {
		names[n] = true
	}
	var results []Result
	for n := range names {
		b, h := base[n], head[n]
		r := Result{Name: n}
		switch {
		case len(h) == 0:
			r.Status = "base-only"
		case len(b) == 0:
			// A benchmark the base doesn't have (newly added) cannot
			// regress; record its presence for the artifact.
			r.Status = "head-only"
			r.HeadMedian = median(h)
		default:
			r.BaseMedian = median(b)
			r.HeadMedian = median(h)
			r.Ratio = r.HeadMedian / r.BaseMedian
			r.P = mannWhitneyP(b, h)
			slower := r.Ratio > 1+threshold
			significant := r.P < alpha
			switch {
			case slower && significant:
				r.Status = "regression"
				r.Regression = true
			case r.Ratio < 1/(1+threshold) && significant:
				r.Status = "improvement"
			default:
				r.Status = "ok"
			}
		}
		results = append(results, r)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	return results
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mannWhitneyP returns the two-sided p-value of the Mann-Whitney U
// test for samples a and b, computed against the exact null
// distribution of U (every rank assignment equally likely). Ties get
// midranks in the statistic; the null distribution assumes continuous
// data, which makes the test slightly conservative when timing samples
// collide exactly.
func mannWhitneyP(a, b []float64) float64 {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return 1
	}
	// Midrank the pooled samples.
	type obs struct {
		v     float64
		fromA bool
	}
	pool := make([]obs, 0, n1+n2)
	for _, v := range a {
		pool = append(pool, obs{v, true})
	}
	for _, v := range b {
		pool = append(pool, obs{v, false})
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].v < pool[j].v })
	ranks := make([]float64, len(pool))
	for i := 0; i < len(pool); {
		j := i
		for j < len(pool) && pool[j].v == pool[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		i = j
	}
	var r1 float64
	for i, o := range pool {
		if o.fromA {
			r1 += ranks[i]
		}
	}
	u1 := r1 - float64(n1*(n1+1))/2
	u2 := float64(n1*n2) - u1
	u := u1
	if u2 < u {
		u = u2
	}
	// Exact null CDF by the standard counting recurrence.
	p := 2 * exactCDF(n1, n2, u)
	if p > 1 {
		p = 1
	}
	return p
}

// exactCDF returns P(U <= u) under the exact Mann-Whitney null
// distribution for sample sizes n1, n2.
func exactCDF(n1, n2 int, u float64) float64 {
	max := n1 * n2
	// counts[m][k] = number of rank assignments of m elements from the
	// first sample giving U statistic k, built by the recurrence
	// f(n1, n2, k) = f(n1-1, n2, k-n2) + f(n1, n2-1, k).
	f := make([][][]int64, n1+1)
	for i := range f {
		f[i] = make([][]int64, n2+1)
		for j := range f[i] {
			f[i][j] = make([]int64, max+1)
		}
	}
	for j := 0; j <= n2; j++ {
		f[0][j][0] = 1
	}
	for i := 0; i <= n1; i++ {
		f[i][0][0] = 1
	}
	for i := 1; i <= n1; i++ {
		for j := 1; j <= n2; j++ {
			for k := 0; k <= i*j; k++ {
				var c int64
				if k >= j {
					c += f[i-1][j][k-j]
				}
				c += f[i][j-1][k]
				f[i][j][k] = c
			}
		}
	}
	var total, below int64
	for k := 0; k <= max; k++ {
		total += f[n1][n2][k]
		// Midranked ties can make u half-integral; <= keeps the exact
		// integral case inclusive either way.
		if float64(k) <= u {
			below += f[n1][n2][k]
		}
	}
	return float64(below) / float64(total)
}

// render prints the benchstat-like verdict table.
func render(results []Result, threshold, alpha float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchgate: median slowdown > %.0f%% at p < %.2f fails\n", threshold*100, alpha)
	fmt.Fprintf(&b, "%-32s %14s %14s %8s %8s  %s\n", "benchmark", "base ns/op", "head ns/op", "ratio", "p", "status")
	for _, r := range results {
		switch r.Status {
		case "base-only":
			fmt.Fprintf(&b, "%-32s %14s %14s %8s %8s  %s\n", r.Name, "-", "-", "-", "-", r.Status)
		case "head-only":
			fmt.Fprintf(&b, "%-32s %14s %14.0f %8s %8s  %s\n", r.Name, "-", r.HeadMedian, "-", "-", r.Status)
		default:
			fmt.Fprintf(&b, "%-32s %14.0f %14.0f %8.3f %8.3f  %s\n",
				r.Name, r.BaseMedian, r.HeadMedian, r.Ratio, r.P, r.Status)
		}
	}
	return b.String()
}

// report is the -json artifact shape.
type report struct {
	Samples map[string][]float64 `json:"head_samples_ns"`
	Results []Result             `json:"results"`
}

func writeJSON(path string, head map[string][]float64, results []Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(report{Samples: head, Results: results})
}
