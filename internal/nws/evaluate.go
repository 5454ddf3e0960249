package nws

import (
	"fmt"
	"math"
	"sort"
)

// ExpertScore is one predictor's hindsight accuracy on a series.
type ExpertScore struct {
	Name string
	MAE  float64
}

// Evaluate replays a measurement series through a fresh default bank
// plus a fresh selector and reports every predictor's mean absolute
// one-step error — the experiment NWS used to justify dynamic predictor
// selection: no single expert wins everywhere, but the selector stays
// competitive with the best one in hindsight.
func Evaluate(series []float64) (experts []ExpertScore, selector ExpertScore, err error) {
	if len(series) < 3 {
		return nil, ExpertScore{}, fmt.Errorf("nws: need at least 3 samples, got %d", len(series))
	}
	bank := DefaultBank()
	sums := make([]float64, len(bank))
	counts := make([]int, len(bank))
	sel := NewSelector()
	var selSum float64
	var selCount int

	for _, v := range series {
		for i, e := range bank {
			if p := e.Forecast(); !math.IsNaN(p) {
				sums[i] += math.Abs(p - v)
				counts[i]++
			}
		}
		if p := sel.Forecast(); !math.IsNaN(p) {
			selSum += math.Abs(p - v)
			selCount++
		}
		for _, e := range bank {
			e.Update(v)
		}
		sel.Update(v)
	}

	experts = make([]ExpertScore, 0, len(bank))
	for i, e := range bank {
		if counts[i] == 0 {
			continue
		}
		experts = append(experts, ExpertScore{Name: e.Name(), MAE: sums[i] / float64(counts[i])})
	}
	sort.Slice(experts, func(i, j int) bool { return experts[i].MAE < experts[j].MAE })
	if selCount == 0 {
		return nil, ExpertScore{}, fmt.Errorf("nws: selector never predicted")
	}
	selector = ExpertScore{Name: "selector", MAE: selSum / float64(selCount)}
	return experts, selector, nil
}
