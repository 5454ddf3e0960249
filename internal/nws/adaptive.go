package nws

import (
	"fmt"
	"math"
)

// AdaptiveMedian is an error-driven sliding median in the style of
// NWS's adaptive-window predictors: when its recent predictions have
// been poor it shrinks the window (react faster), and when they have
// been good it grows the window (smooth harder), between the given
// bounds.
type AdaptiveMedian struct {
	minW, maxW int
	win        window    // most recent maxW measurements, the last w sorted
	recentErr  []float64 // last 8 absolute prediction errors, oldest first
	scaleSum   float64   // running scale of the series for normalizing
	n          int
}

// NewAdaptiveMedian returns an adaptive median predictor with window
// bounds [minW, maxW].
func NewAdaptiveMedian(minW, maxW int) *AdaptiveMedian {
	if minW < 1 {
		minW = 1
	}
	if maxW < minW {
		maxW = minW
	}
	return &AdaptiveMedian{minW: minW, maxW: maxW, win: newWindow((minW+maxW)/2, maxW), recentErr: make([]float64, 0, 8)}
}

// Name implements Forecaster.
func (f *AdaptiveMedian) Name() string { return fmt.Sprintf("amedian%d..%d", f.minW, f.maxW) }

// Update implements Forecaster.
func (f *AdaptiveMedian) Update(v float64) {
	if p := f.Forecast(); !math.IsNaN(p) {
		if len(f.recentErr) == cap(f.recentErr) {
			f.recentErr = append(f.recentErr[:0], f.recentErr[1:]...)
		}
		f.recentErr = append(f.recentErr, math.Abs(p-v))
		f.adapt()
	}
	f.win.push(v)
	f.scaleSum += math.Abs(v)
	f.n++
}

// adapt moves the window by one step according to recent relative
// error: above 15% shrink, below 5% grow.
func (f *AdaptiveMedian) adapt() {
	if len(f.recentErr) < 4 || f.n == 0 {
		return
	}
	var errSum float64
	for _, e := range f.recentErr {
		errSum += e
	}
	meanErr := errSum / float64(len(f.recentErr))
	scale := f.scaleSum / float64(f.n)
	if scale <= 0 {
		return
	}
	switch rel := meanErr / scale; {
	case rel > 0.15 && f.win.width > f.minW:
		f.win.width--
	case rel < 0.05 && f.win.width < f.maxW:
		f.win.width++
	}
}

// Forecast implements Forecaster.
func (f *AdaptiveMedian) Forecast() float64 { return f.win.median() }

// Window reports the current adaptive window width.
func (f *AdaptiveMedian) Window() int { return f.win.width }

// TrimmedMean predicts the mean of the last W measurements after
// discarding the smallest and largest trim fraction — NWS's defense
// against measurement spikes that the plain mean chases and the median
// over-ignores.
type TrimmedMean struct {
	w    int
	trim float64
	win  window
}

// NewTrimmedMean returns a trimmed-mean predictor of width w trimming
// the given fraction (clamped to [0, 0.4]) from each tail.
func NewTrimmedMean(w int, trim float64) *TrimmedMean {
	if w < 1 {
		w = 1
	}
	if trim < 0 {
		trim = 0
	}
	if trim > 0.4 {
		trim = 0.4
	}
	return &TrimmedMean{w: w, trim: trim, win: newWindow(w, w)}
}

// Name implements Forecaster.
func (f *TrimmedMean) Name() string { return fmt.Sprintf("tmean%d/%.0f%%", f.w, f.trim*100) }

// Update implements Forecaster.
func (f *TrimmedMean) Update(v float64) { f.win.push(v) }

// Forecast implements Forecaster.
func (f *TrimmedMean) Forecast() float64 {
	sorted, n := f.win.sorted, len(f.win.sorted)
	if n == 0 {
		return math.NaN()
	}
	cut := int(float64(n) * f.trim)
	kept := sorted[cut : n-cut]
	if len(kept) == 0 {
		kept = sorted
	}
	var sum float64
	for _, x := range kept {
		sum += x
	}
	return sum / float64(len(kept))
}

var (
	_ Forecaster = (*AdaptiveMedian)(nil)
	_ Forecaster = (*TrimmedMean)(nil)
)
