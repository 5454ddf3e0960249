package nws

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func feed(f Forecaster, xs ...float64) {
	for _, x := range xs {
		f.Update(x)
	}
}

func TestLastValue(t *testing.T) {
	f := &LastValue{}
	if !math.IsNaN(f.Forecast()) {
		t.Fatal("fresh forecaster should predict NaN")
	}
	feed(f, 1, 2, 3)
	if f.Forecast() != 3 {
		t.Fatalf("forecast = %v", f.Forecast())
	}
	if f.Name() != "last" {
		t.Fatalf("name = %q", f.Name())
	}
}

func TestRunningMean(t *testing.T) {
	f := &RunningMean{}
	if !math.IsNaN(f.Forecast()) {
		t.Fatal("fresh forecaster should predict NaN")
	}
	feed(f, 2, 4, 6)
	if f.Forecast() != 4 {
		t.Fatalf("forecast = %v", f.Forecast())
	}
}

func TestSlidingMean(t *testing.T) {
	f := NewSlidingMean(2)
	feed(f, 10, 20, 30)
	if f.Forecast() != 25 {
		t.Fatalf("window mean = %v, want 25", f.Forecast())
	}
	// Width clamps to 1.
	g := NewSlidingMean(0)
	feed(g, 5, 9)
	if g.Forecast() != 9 {
		t.Fatalf("width-1 mean = %v", g.Forecast())
	}
}

func TestSlidingMedian(t *testing.T) {
	f := NewSlidingMedian(3)
	feed(f, 1, 100, 2)
	if f.Forecast() != 2 {
		t.Fatalf("median = %v, want 2", f.Forecast())
	}
	feed(f, 3) // window now 100, 2, 3
	if f.Forecast() != 3 {
		t.Fatalf("median = %v, want 3", f.Forecast())
	}
	// Even window: mean of middle two.
	g := NewSlidingMedian(4)
	feed(g, 1, 2, 3, 10)
	if g.Forecast() != 2.5 {
		t.Fatalf("even median = %v, want 2.5", g.Forecast())
	}
}

func TestSlidingMedianRobustToOutliers(t *testing.T) {
	f := NewSlidingMedian(5)
	feed(f, 10, 10, 1e9, 10, 10)
	if f.Forecast() != 10 {
		t.Fatalf("median swayed by outlier: %v", f.Forecast())
	}
}

func TestExpSmooth(t *testing.T) {
	f := NewExpSmooth(0.5)
	feed(f, 10)
	if f.Forecast() != 10 {
		t.Fatalf("first = %v", f.Forecast())
	}
	feed(f, 20)
	if f.Forecast() != 15 {
		t.Fatalf("smoothed = %v, want 15", f.Forecast())
	}
	// Gain clamping.
	if g := NewExpSmooth(-1); g.alpha <= 0 {
		t.Fatal("alpha not clamped up")
	}
	if g := NewExpSmooth(2); g.alpha != 1 {
		t.Fatal("alpha not clamped down")
	}
}

func TestForecastsWithinObservedRange(t *testing.T) {
	// Every forecaster's prediction must stay within [min, max] of the
	// series seen so far — a basic sanity invariant of averaging-type
	// predictors.
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Abs(math.Mod(v, 1e6)))
			}
		}
		if len(xs) == 0 {
			return true
		}
		bank := DefaultBank()
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
			for _, e := range bank {
				e.Update(x)
			}
		}
		for _, e := range bank {
			p := e.Forecast()
			if math.IsNaN(p) || p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectorPrefersAccurateExpert(t *testing.T) {
	// A noisy stationary series: the windowed mean should beat the
	// last-value predictor, so the selector's forecast should be close
	// to the true mean.
	rng := rand.New(rand.NewSource(1))
	s := NewSelector()
	const mean = 100.0
	for i := 0; i < 500; i++ {
		s.Update(mean + rng.NormFloat64()*10)
	}
	if got := s.Forecast(); math.Abs(got-mean) > 5 {
		t.Fatalf("selector forecast %v, want near %v", got, mean)
	}
	if s.Samples() != 500 {
		t.Fatalf("samples = %d", s.Samples())
	}
}

func TestSelectorTracksShift(t *testing.T) {
	s := NewSelector()
	for i := 0; i < 100; i++ {
		s.Update(10)
	}
	for i := 0; i < 200; i++ {
		s.Update(50)
	}
	if got := s.Forecast(); math.Abs(got-50) > 15 {
		t.Fatalf("selector stuck at old level: %v", got)
	}
}

func TestSelectorMAE(t *testing.T) {
	s := NewSelector()
	if !math.IsNaN(s.MAE()) {
		t.Fatal("MAE before data should be NaN")
	}
	s.Update(10)
	if !math.IsNaN(s.MAE()) {
		t.Fatal("MAE after one sample should be NaN")
	}
	s.Update(10)
	s.Update(10)
	if got := s.MAE(); got != 0 {
		t.Fatalf("constant series MAE = %v, want 0", got)
	}
}

func TestSelectorEmptyForecast(t *testing.T) {
	s := NewSelector(&LastValue{})
	if !math.IsNaN(s.Forecast()) {
		t.Fatal("selector with no data should predict NaN")
	}
	if s.Name() == "" {
		t.Fatal("selector name empty")
	}
}
