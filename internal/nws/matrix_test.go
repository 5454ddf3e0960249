package nws

import (
	"math"
	"strings"
	"testing"
)

func TestNewMonitorValidation(t *testing.T) {
	if _, err := NewMonitor([]string{"a"}, nil); err == nil {
		t.Fatal("single host accepted")
	}
	if _, err := NewMonitor([]string{"a", "a"}, nil); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := NewMonitor([]string{"a", ""}, nil); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestObserveAndForecast(t *testing.T) {
	m, err := NewMonitor([]string{"a", "b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(m.Forecast("a", "b")) {
		t.Fatal("unmeasured pair should forecast NaN")
	}
	for i := 0; i < 5; i++ {
		if err := m.Observe("a", "b", 100); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Forecast("a", "b"); got != 100 {
		t.Fatalf("forecast = %v", got)
	}
	// Direction matters.
	if !math.IsNaN(m.Forecast("b", "a")) {
		t.Fatal("reverse direction should be independent")
	}
	if m.Updates() != 5 {
		t.Fatalf("updates = %d", m.Updates())
	}
}

func TestObserveErrors(t *testing.T) {
	m, _ := NewMonitor([]string{"a", "b"}, nil)
	if err := m.Observe("zzz", "b", 1); err == nil {
		t.Fatal("unknown source accepted")
	}
	if err := m.Observe("a", "zzz", 1); err == nil {
		t.Fatal("unknown dest accepted")
	}
	if err := m.Observe("a", "a", 1); err == nil {
		t.Fatal("self measurement accepted")
	}
	if err := m.Observe("a", "b", -5); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
	if err := m.Observe("a", "b", math.NaN()); err == nil {
		t.Fatal("NaN bandwidth accepted")
	}
	for _, bw := range []float64{math.Inf(1), math.Inf(-1)} {
		if err := m.Observe("a", "b", bw); err == nil {
			t.Fatalf("%v bandwidth accepted", bw)
		}
	}
	if m.Updates() != 0 {
		t.Fatalf("updates = %d after only invalid readings", m.Updates())
	}
}

func TestSnapshot(t *testing.T) {
	m, _ := NewMonitor([]string{"a", "b", "c"}, nil)
	m.Observe("a", "b", 10)
	m.Observe("b", "a", 20)
	mx := m.Snapshot()
	if mx.BW[0][1] != 10 || mx.BW[1][0] != 20 {
		t.Fatalf("snapshot = %+v", mx.BW)
	}
	if !math.IsNaN(mx.BW[0][2]) {
		t.Fatal("unmeasured pair should be NaN")
	}
	if !math.IsInf(mx.BW[0][0], 1) {
		t.Fatal("diagonal should be +Inf")
	}
}

func TestMeanRelativeError(t *testing.T) {
	m, _ := NewMonitor([]string{"a", "b"}, nil)
	if !math.IsNaN(m.MeanRelativeError()) {
		t.Fatal("no data should give NaN")
	}
	for i := 0; i < 20; i++ {
		m.Observe("a", "b", 100)
		m.Observe("b", "a", 200)
	}
	if got := m.MeanRelativeError(); got != 0 {
		t.Fatalf("constant series rel error = %v", got)
	}
}

func TestAggregateBySite(t *testing.T) {
	m, _ := NewMonitor([]string{"h1.x", "h2.x", "h1.y"}, nil)
	m.Observe("h1.x", "h1.y", 100)
	m.Observe("h2.x", "h1.y", 300)
	mx := m.Snapshot()
	site := func(h string) string { return strings.SplitN(h, ".", 2)[1] }
	agg := mx.AggregateBySite(site)
	if len(agg.Hosts) != 2 {
		t.Fatalf("sites = %v", agg.Hosts)
	}
	// x -> y should be mean(100, 300) = 200.
	xi, yi := -1, -1
	for i, s := range agg.Hosts {
		switch s {
		case "x":
			xi = i
		case "y":
			yi = i
		}
	}
	if xi < 0 || yi < 0 {
		t.Fatalf("missing sites: %v", agg.Hosts)
	}
	if got := agg.BW[xi][yi]; got != 200 {
		t.Fatalf("aggregated x→y = %v, want 200", got)
	}
	if !math.IsNaN(agg.BW[yi][xi]) {
		t.Fatal("unmeasured reverse should stay NaN")
	}
}

func TestMatrixString(t *testing.T) {
	m, _ := NewMonitor([]string{"a", "b"}, nil)
	m.Observe("a", "b", 2e6)
	out := m.Snapshot().String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "2.00") {
		t.Fatalf("rendering:\n%s", out)
	}
	if !strings.Contains(out, "?") {
		t.Fatal("unmeasured cell should render '?'")
	}
}

func TestHostsCopy(t *testing.T) {
	m, _ := NewMonitor([]string{"a", "b"}, nil)
	hosts := m.Hosts()
	hosts[0] = "mutated"
	if m.Hosts()[0] != "a" {
		t.Fatal("Hosts() exposed internal slice")
	}
}

func TestCustomBank(t *testing.T) {
	m, err := NewMonitor([]string{"a", "b"}, func() []Forecaster {
		return []Forecaster{&LastValue{}}
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe("a", "b", 1)
	m.Observe("a", "b", 9)
	if got := m.Forecast("a", "b"); got != 9 {
		t.Fatalf("last-value bank forecast = %v", got)
	}
}
