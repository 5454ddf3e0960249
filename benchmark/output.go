package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	order []metricSpec
	lines []string // what the run says beside its metrics
	note  string   // why Correct is false
}

// newResult pairs the metrics a run produced with their specs; a
// metric the run did not produce, or a value JSON cannot carry, makes
// the run incorrect rather than silently absent.
func newResult(r runResult, specs []metricSpec, values map[string]float64) result {
	res := result{Attempted: r.ops, Failed: r.failed, Metrics: map[string]metricValue{}, order: specs}
	var notes []string
	if r.failed > 0 {
		notes = append(notes, fmt.Sprintf("first failure: %v", r.firstErr))
	}
	if !r.drained {
		notes = append(notes, "a depot did not drain within its shutdown timeout")
	}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			notes = append(notes, "no finite value for "+s.Name)
			v = -1
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	res.Correct, res.note = len(notes) == 0, strings.Join(notes, "; ")
	_, beyond := percentile(r.latencies, r.spec.TailPct)
	res.lines = []string{
		fmt.Sprintf("%s: %d ops (%d failed) by %d closed-loop client(s) in %.2f s, cpu %.2f s user + %.2f s sys",
			r.spec.Name, r.ops, r.failed, r.spec.Clients, r.wall.Seconds(), r.cpu.user.Seconds(), r.cpu.sys.Seconds()),
		fmt.Sprintf("%s: op_tail_us is p%g of %d samples, %d beyond it; fail_ratio %.6f; leaked goroutines %d",
			r.spec.Name, r.spec.TailPct, len(r.latencies), beyond, float64(r.failed)/float64(r.ops), r.leaked),
	}
	return res
}

// print writes the metrics by name with their units, then the result
// object on a line of its own.
func (res result) print(w io.Writer) error {
	for _, l := range res.lines {
		fmt.Fprintln(w, l)
	}
	for _, s := range res.order {
		fmt.Fprintf(w, "%-40s %16.4f %s\n", s.Name, res.Metrics[s.Name].Value, s.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// ---- a whole set: every workload, a process each ----

type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	GitSHA     string `json:"git_sha"`
}

type setEntry struct {
	Name  string  `json:"name"`
	WallS float64 `json:"wall_s"` // the child process, set-up and teardown included
	result
}

type setFile struct {
	Seed      int64      `json:"seed"`
	Seconds   int        `json:"seconds"`
	Trace     int        `json:"trace"`
	Env       envInfo    `json:"env"`
	Workloads []setEntry `json:"workloads"`
}

func environment() envInfo {
	env := envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Kernel: "unknown", GitSHA: "unknown"}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitSHA = strings.TrimSpace(string(b))
	}
	return env
}

// runSet re-executes this binary once per workload, so CPU time and
// peak memory are each workload's own, and writes one result file.
func runSet(seed int64, seconds, trace int, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	set := setFile{Seed: seed, Seconds: seconds, Trace: trace, Env: environment()}
	code := 0
	for _, w := range workloads {
		var buf bytes.Buffer
		cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &buf), stderr
		start := time.Now()
		runErr := cmd.Run()
		entry := setEntry{Name: w.Name, WallS: time.Since(start).Seconds()}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &entry.result); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s printed no result: %v\n", w.Name, runErr)
			return 1
		}
		set.Workloads = append(set.Workloads, entry)
		if runErr != nil {
			code = 1
		}
		fmt.Fprintln(stdout)
	}
	body, err := json.MarshalIndent(set, "", "  ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(out), 0o755); err == nil {
			err = os.WriteFile(out, append(body, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	return code
}

// ---- compare ----

// benchmarkJSON is the part of BENCHMARK.json compare reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compare prints, per workload and end-to-end metric, both sets'
// values, B's difference relative to A and the bound, and returns 1
// when any difference is outside its bound in either direction.
func compare(args []string, stdout, stderr io.Writer) int {
	specPath := "BENCHMARK.json"
	if len(args) == 4 && args[0] == "-spec" {
		specPath, args = args[1], args[2:]
	}
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-spec BENCHMARK.json] A.json B.json")
		return 2
	}
	var spec benchmarkJSON
	var a, b setFile
	for path, v := range map[string]any{specPath: &spec, args[0]: &a, args[1]: &b} {
		if err := loadJSON(path, v); err != nil {
			fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
			return 2
		}
	}
	outside, err := compareSets(spec.EndToEnd, a, b, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
		return 2
	}
	if outside > 0 {
		fmt.Fprintf(stdout, "%d outside their bound\n", outside)
		return 1
	}
	fmt.Fprintln(stdout, "all within their bounds")
	return 0
}

func compareSets(specs []metricSpec, a, b setFile, w io.Writer) (int, error) {
	if a.Trace != 0 || b.Trace != 0 {
		return 0, errors.New("compare takes end-to-end sets, not traced ones")
	}
	bByName := map[string]setEntry{}
	for _, e := range b.Workloads {
		bByName[e.Name] = e
	}
	outside := 0
	fmt.Fprintf(w, "%-14s %-22s %16s %16s %9s %7s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, ea := range a.Workloads {
		eb, ok := bByName[ea.Name]
		if !ok {
			return 0, fmt.Errorf("workload %s is missing from the second set", ea.Name)
		}
		row := func(name string, va, vb, diff float64, bound string, out bool) {
			mark := ""
			if out {
				mark = "  OUTSIDE"
				outside++
			}
			fmt.Fprintf(w, "%-14s %-22s %16.4f %16.4f %+8.2f%% %7s%s\n", ea.Name, name, va, vb, diff*100, bound, mark)
		}
		for _, s := range specs {
			ma, okA := ea.Metrics[s.Name]
			mb, okB := eb.Metrics[s.Name]
			if !okA || !okB {
				return 0, fmt.Errorf("%s: metric %s is missing from a set", ea.Name, s.Name)
			}
			diff := (mb.Value - ma.Value) / ma.Value
			out := math.Abs(diff) > s.Bound
			if s.Name == "setup_s" && math.Abs(mb.Value-ma.Value) <= setupFloorS {
				out = false
			}
			row(s.Name, ma.Value, mb.Value, diff, fmt.Sprintf("%.0f%%", s.Bound*100), out)
		}
		// Any increase in failures is outside, whatever its size.
		fa, fb := float64(ea.Failed)/float64(ea.Attempted), float64(eb.Failed)/float64(eb.Attempted)
		row("fail_ratio", fa, fb, fb-fa, "0", fb > fa)
	}
	return outside, nil
}
