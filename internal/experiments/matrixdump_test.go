package experiments

import (
	"strings"
	"testing"
)

func TestBuildTopology(t *testing.T) {
	for name, wantHosts := range map[string]int{
		"twopath":   5,
		"planetlab": 142,
		"abilene":   21,
	} {
		tp, err := BuildTopology(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tp.N() != wantHosts {
			t.Errorf("%s: hosts = %d, want %d", name, tp.N(), wantHosts)
		}
	}
	if _, err := BuildTopology("nope", 1); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestDumpMeasurements(t *testing.T) {
	out, err := DumpMeasurements("twopath", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.Text()), "\n")
	var data int
	for _, l := range lines {
		if strings.HasPrefix(l, "#") {
			continue
		}
		fields := strings.Fields(l)
		if len(fields) != 3 {
			t.Fatalf("malformed line %q", l)
		}
		data++
	}
	// 5 hosts × 4 peers × 2 samples.
	if data != 5*4*2 {
		t.Fatalf("data lines = %d, want 40", data)
	}
	if _, err := DumpMeasurements("nope", 1, 1); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestDumpMeasurementsDeterministic(t *testing.T) {
	a, err := DumpMeasurements("twopath", 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DumpMeasurements("twopath", 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Text() != b.Text() {
		t.Fatal("same seed gave different dumps")
	}
}

func TestNWSEvaluation(t *testing.T) {
	tables, err := NWSEvaluation(1)
	if err != nil {
		t.Fatal(err)
	}
	var out string
	for _, tb := range tables {
		out += tb.Text()
	}
	for _, want := range []string{"stationary", "drifting", "spiky", "measured", "selector"} {
		if !strings.Contains(out, want) {
			t.Fatalf("evaluation missing %q", want)
		}
	}
}

func TestMeasuredSeriesAutocorrelated(t *testing.T) {
	s := measuredSeries(1, 300)
	if len(s) != 300 {
		t.Fatalf("len = %d", len(s))
	}
	// Lag-1 autocorrelation should be clearly positive: the load walk
	// makes consecutive measurements related, unlike iid noise.
	var mean float64
	for _, v := range s {
		mean += v
	}
	mean /= float64(len(s))
	var num, den float64
	for i := 0; i < len(s)-1; i++ {
		num += (s[i] - mean) * (s[i+1] - mean)
	}
	for _, v := range s {
		den += (v - mean) * (v - mean)
	}
	if r := num / den; r < 0.2 {
		t.Fatalf("lag-1 autocorrelation = %.2f, want clearly positive", r)
	}
}
