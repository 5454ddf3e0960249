package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// smokeScale shrinks every op count to its floor.
const smokeScale = 0.002

// smokeSpec is the workload with a payload small enough for tier-1.
func smokeSpec(t *testing.T, name string) workloadSpec {
	t.Helper()
	spec, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	if spec.OpBytes > 1<<20 && strings.HasPrefix(name, "tcp-") {
		spec.OpBytes = 1 << 20
	}
	return spec
}

func checkMetrics(t *testing.T, res result, specs []metricSpec, nonZero bool) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%d metrics emitted, %d specified", len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := res.Metrics[s.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is missing", s.Name)
		case m.Unit != s.Unit:
			t.Errorf("metric %s has unit %q, want %q", s.Name, m.Unit, s.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is not finite", s.Name)
		case nonZero && m.Value <= 0:
			t.Errorf("metric %s = %v, want > 0", s.Name, m.Value)
		}
	}
}

func TestEveryWorkloadEmitsEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloads {
		spec := smokeSpec(t, w.Name)
		r, err := runWorkload(spec, runOpts{seed: 7, scale: smokeScale, setups: 1})
		if err != nil {
			t.Fatal(err)
		}
		res := newResult(r, endToEnd, r.endToEnd())
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %s", w.Name, res.Correct, res.Attempted, res.Failed, res.note)
		}
		if r.leaked != 0 {
			t.Errorf("%s: %d goroutines left after teardown", w.Name, r.leaked)
		}
		checkMetrics(t, res, endToEnd, true)
		var out bytes.Buffer
		if err := res.print(&out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("%s: last line is not JSON: %v", w.Name, err)
		}
		if len(last) != 4 {
			t.Errorf("%s: result object has keys %v, want correct, attempted, failed, metrics", w.Name, last)
		}
	}
}

func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	tr, err := tracedRun(smokeSpec(t, "tcp-small"), 7, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	res := newResult(tr.pass, perLayer, tr.metrics)
	if !res.Correct {
		t.Errorf("traced run is not correct: %s", res.note)
	}
	checkMetrics(t, res, perLayer, false)
	for name := range tr.metrics {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("traced run produced %s, which perLayer does not name", name)
		}
	}
	path := t.TempDir() + "/spans.jsonl"
	if err := writeJSONL(path, tr.tracers...); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"op", "lsl.open", "src.write", "sink.accept", "sink.read", "close_to_done"} {
		if !bytes.Contains(body, []byte(`"name":"`+name+`"`)) {
			t.Errorf("span file has no %q span", name)
		}
	}
}

// A byte flipped at depot 2 must surface as failed ops: on tcp-bulk the
// sink's comparison catches it, on tcp-armed the next hop's CRC check
// tears the session down.
func TestCorruptionIsReportedAsFailedOps(t *testing.T) {
	for _, name := range []string{"tcp-bulk", "tcp-armed"} {
		spec := smokeSpec(t, name)
		// One warm-up op at this scale; the fault fires in the timed window.
		r, err := runWorkload(spec, runOpts{seed: 7, scale: smokeScale, setups: 1, corrupt: spec.OpBytes + spec.OpBytes/2})
		if err != nil {
			t.Fatal(err)
		}
		res := newResult(r, endToEnd, r.endToEnd())
		if r.failed == 0 || res.Correct {
			t.Errorf("%s: corrupted run reports failed=%d correct=%v", name, r.failed, res.Correct)
		}
		if name == "tcp-armed" && r.chain.ChecksumErrors == 0 {
			t.Errorf("tcp-armed: no depot counted a checksum error")
		}
		if r.leaked != 0 {
			t.Errorf("%s: %d goroutines left after a failed op", name, r.leaked)
		}
	}
}

func TestBenchmarkJSONNamesWhatTheProgramEmits(t *testing.T) {
	var doc struct {
		benchmarkJSON
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
	}
	if err := loadJSON("../BENCHMARK.json", &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestCompareFlagsOnlyDifferencesOutsideTheBound(t *testing.T) {
	specs := []metricSpec{
		{Name: "goodput_MBps", Unit: "MB/s", Better: "higher", Bound: 0.10},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	}
	set := func(goodput, setup float64, failed int) setFile {
		m := map[string]metricValue{
			"goodput_MBps": {Value: goodput, Unit: "MB/s"},
			"setup_s":      {Value: setup, Unit: "s"},
		}
		return setFile{Workloads: []setEntry{{Name: "tcp-bulk", result: result{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: m}}}}
	}
	for _, c := range []struct {
		name    string
		a, b    setFile
		outside int
	}{
		{"identical", set(1000, 0.3, 0), set(1000, 0.3, 0), 0},
		{"within 10%", set(1000, 0.3, 0), set(1080, 0.3, 0), 0},
		{"goodput down 12%", set(1000, 0.3, 0), set(880, 0.3, 0), 1},
		{"goodput up 12%", set(1000, 0.3, 0), set(1120, 0.3, 0), 1},
		{"set-up +40% but under 50 ms", set(1000, 0.10, 0), set(1000, 0.14, 0), 0},
		{"set-up +40% and over 50 ms", set(1000, 0.30, 0), set(1000, 0.42, 0), 1},
		{"a failed op", set(1000, 0.3, 0), set(1000, 0.3, 1), 1},
	} {
		var out bytes.Buffer
		got, err := compareSets(specs, c.a, c.b, &out)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.outside {
			t.Errorf("%s: %d outside, want %d\n%s", c.name, got, c.outside, out.String())
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 200; i++ {
		d = append(d, time.Duration(i))
	}
	for _, c := range []struct {
		p      float64
		v      time.Duration
		beyond int
	}{{50, 100, 100}, {90, 180, 20}, {95, 190, 10}, {99, 198, 2}, {100, 200, 0}} {
		if v, beyond := percentile(d, c.p); v != c.v || beyond != c.beyond {
			t.Errorf("p%g = %d with %d beyond, want %d with %d", c.p, v, beyond, c.v, c.beyond)
		}
	}
}
