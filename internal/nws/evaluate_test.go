package nws

import (
	"math/rand"
	"testing"
)

// synthetic series in the three regimes NWS cares about.
func stationarySeries(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 100 + rng.NormFloat64()*8
	}
	return out
}

func driftingSeries(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	level := 100.0
	for i := range out {
		level += rng.NormFloat64() * 3
		out[i] = level + rng.NormFloat64()*2
	}
	return out
}

func spikySeries(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 100 + rng.NormFloat64()*3
		if rng.Float64() < 0.08 {
			out[i] *= 5 // measurement spike
		}
	}
	return out
}

func TestEvaluateValidation(t *testing.T) {
	if _, _, err := Evaluate([]float64{1, 2}); err == nil {
		t.Fatal("short series accepted")
	}
}

func TestSelectorCompetitiveAcrossRegimes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	regimes := map[string][]float64{
		"stationary": stationarySeries(400, rng),
		"drifting":   driftingSeries(400, rng),
		"spiky":      spikySeries(400, rng),
	}
	bestByRegime := map[string]string{}
	for name, series := range regimes {
		experts, selector, err := Evaluate(series)
		if err != nil {
			t.Fatal(err)
		}
		// Experts come back sorted by MAE, best first.
		for i := 1; i < len(experts); i++ {
			if experts[i].MAE < experts[i-1].MAE {
				t.Fatalf("%s: experts not sorted by MAE", name)
			}
		}
		best := experts[0]
		bestByRegime[name] = best.Name
		// The selector must stay within 35% of the best expert in
		// hindsight (it pays a learning cost early in the series).
		if selector.MAE > best.MAE*1.35 {
			t.Fatalf("%s: selector MAE %v vs best %v (%s)",
				name, selector.MAE, best.MAE, best.Name)
		}
		// And it must beat the worst expert comfortably.
		worst := experts[len(experts)-1]
		if selector.MAE > worst.MAE {
			t.Fatalf("%s: selector worse than the worst expert", name)
		}
	}
	// The core justification for dynamic selection: different regimes
	// are won by different experts.
	seen := map[string]bool{}
	for _, b := range bestByRegime {
		seen[b] = true
	}
	if len(seen) < 2 {
		t.Fatalf("one expert won every regime (%v); selection would be pointless", bestByRegime)
	}
}
