package nws

import (
	"math"
	"strings"
)

// Selector is the NWS "mixture of experts": it runs a bank of
// forecasters over the same measurement series, scores each by its
// cumulative mean absolute error on past one-step predictions, and
// forecasts with whichever expert has been most accurate so far.
type Selector struct {
	experts []Forecaster
	absErr  []float64
	n       int
}

// DefaultBank returns the standard bank of experts used throughout the
// system: last value, running mean, window means and medians at a few
// widths, and exponential smoothing at two gains.
func DefaultBank() []Forecaster {
	return []Forecaster{
		&LastValue{},
		&RunningMean{},
		NewSlidingMean(5),
		NewSlidingMean(20),
		NewSlidingMedian(5),
		NewSlidingMedian(20),
		NewExpSmooth(0.1),
		NewExpSmooth(0.4),
		NewAdaptiveMedian(3, 30),
		NewTrimmedMean(15, 0.2),
	}
}

// NewSelector returns a selector over the given experts, or over
// DefaultBank() when none are given.
func NewSelector(experts ...Forecaster) *Selector {
	if len(experts) == 0 {
		experts = DefaultBank()
	}
	return &Selector{
		experts: experts,
		absErr:  make([]float64, len(experts)),
	}
}

// Update scores every expert's standing prediction against the new
// measurement, then feeds the measurement to all of them.
func (s *Selector) Update(v float64) {
	if s.n > 0 {
		for i, e := range s.experts {
			if p := e.Forecast(); !math.IsNaN(p) {
				s.absErr[i] += math.Abs(p - v)
			}
		}
	}
	for _, e := range s.experts {
		e.Update(v)
	}
	s.n++
}

func (s *Selector) bestIndex() int {
	best, bestErr := 0, math.Inf(1)
	for i := range s.experts {
		if s.absErr[i] < bestErr {
			best, bestErr = i, s.absErr[i]
		}
	}
	return best
}

// Forecast returns the current best expert's prediction (NaN before the
// first update).
func (s *Selector) Forecast() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.experts[s.bestIndex()].Forecast()
}

// Name implements Forecaster, reporting the winning expert.
func (s *Selector) Name() string {
	var b strings.Builder
	b.WriteString("select(")
	b.WriteString(s.experts[s.bestIndex()].Name())
	b.WriteString(")")
	return b.String()
}

// MAE returns the winning expert's mean absolute one-step error so far,
// a natural candidate for the scheduler's ε (the paper suggests "
// prediction error from the NWS" as an automatic ε source). It returns
// NaN before two updates.
func (s *Selector) MAE() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.absErr[s.bestIndex()] / float64(s.n-1)
}

// Samples reports how many measurements have been consumed.
func (s *Selector) Samples() int { return s.n }

var _ Forecaster = (*Selector)(nil)
