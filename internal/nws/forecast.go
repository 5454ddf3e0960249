// Package nws reimplements the forecasting core of the Network Weather
// Service (Wolski, 1998), which the paper uses as the source of its
// "performance topology": per-host-pair bandwidth measurements are fed
// to a bank of simple predictors, the predictor with the lowest
// cumulative error is believed, and the winning forecasts populate the
// scheduler's cost matrix.
package nws

import (
	"fmt"
	"math"
)

// Forecaster is one predictor in the NWS bank: it consumes a measurement
// series one value at a time and predicts the next value.
type Forecaster interface {
	// Update records a new measurement.
	Update(v float64)
	// Forecast predicts the next measurement. NaN until the first update.
	Forecast() float64
	// Name identifies the predictor in diagnostics.
	Name() string
}

// LastValue predicts the most recent measurement.
type LastValue struct {
	last float64
	seen bool
}

// Name implements Forecaster.
func (f *LastValue) Name() string { return "last" }

// Update implements Forecaster.
func (f *LastValue) Update(v float64) { f.last, f.seen = v, true }

// Forecast implements Forecaster.
func (f *LastValue) Forecast() float64 {
	if !f.seen {
		return math.NaN()
	}
	return f.last
}

// RunningMean predicts the mean of the whole history.
type RunningMean struct {
	sum float64
	n   int
}

// Name implements Forecaster.
func (f *RunningMean) Name() string { return "mean" }

// Update implements Forecaster.
func (f *RunningMean) Update(v float64) { f.sum += v; f.n++ }

// Forecast implements Forecaster.
func (f *RunningMean) Forecast() float64 {
	if f.n == 0 {
		return math.NaN()
	}
	return f.sum / float64(f.n)
}

// SlidingMean predicts the mean of the last W measurements.
type SlidingMean struct {
	w   int
	buf []float64
	pos int
	n   int
	sum float64
}

// NewSlidingMean returns a window-mean predictor of width w (min 1).
func NewSlidingMean(w int) *SlidingMean {
	if w < 1 {
		w = 1
	}
	return &SlidingMean{w: w, buf: make([]float64, w)}
}

// Name implements Forecaster.
func (f *SlidingMean) Name() string { return fmt.Sprintf("mean%d", f.w) }

// Update implements Forecaster.
func (f *SlidingMean) Update(v float64) {
	if f.n == f.w {
		f.sum -= f.buf[f.pos]
	} else {
		f.n++
	}
	f.buf[f.pos] = v
	f.sum += v
	f.pos = (f.pos + 1) % f.w
}

// Forecast implements Forecaster.
func (f *SlidingMean) Forecast() float64 {
	if f.n == 0 {
		return math.NaN()
	}
	return f.sum / float64(f.n)
}

// SlidingMedian predicts the median of the last W measurements; NWS
// favours it for noisy series with outliers.
type SlidingMedian struct {
	w   int
	win window
}

// NewSlidingMedian returns a window-median predictor of width w (min 1).
func NewSlidingMedian(w int) *SlidingMedian {
	if w < 1 {
		w = 1
	}
	return &SlidingMedian{w: w, win: newWindow(w, w)}
}

// Name implements Forecaster.
func (f *SlidingMedian) Name() string { return fmt.Sprintf("median%d", f.w) }

// Update implements Forecaster.
func (f *SlidingMedian) Update(v float64) { f.win.push(v) }

// Forecast implements Forecaster.
func (f *SlidingMedian) Forecast() float64 { return f.win.median() }

// ExpSmooth predicts with exponential smoothing at gain alpha.
type ExpSmooth struct {
	alpha float64
	s     float64
	seen  bool
}

// NewExpSmooth returns an exponential-smoothing predictor with gain
// alpha clamped to (0,1].
func NewExpSmooth(alpha float64) *ExpSmooth {
	if alpha <= 0 {
		alpha = 0.05
	}
	if alpha > 1 {
		alpha = 1
	}
	return &ExpSmooth{alpha: alpha}
}

// Name implements Forecaster.
func (f *ExpSmooth) Name() string { return fmt.Sprintf("exp%.2f", f.alpha) }

// Update implements Forecaster.
func (f *ExpSmooth) Update(v float64) {
	if !f.seen {
		f.s, f.seen = v, true
		return
	}
	f.s = f.alpha*v + (1-f.alpha)*f.s
}

// Forecast implements Forecaster.
func (f *ExpSmooth) Forecast() float64 {
	if !f.seen {
		return math.NaN()
	}
	return f.s
}
