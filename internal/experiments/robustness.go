package experiments

import (
	"fmt"

	"github.com/netlogistics/lsl/internal/stats"
)

// RobustnessRow is one seed's headline numbers.
type RobustnessRow struct {
	Seed        int64
	RelayedPct  float64
	MeanSpeedup float64
	MedianSpeed float64
	PctOver     float64 // mean crossover percentile across sizes
}

// Robustness reruns the Figure 9 aggregate evaluation across several
// independently drawn testbeds and measurement seeds, reporting the
// headline statistics per seed — the reproduction-quality check that a
// single lucky seed is not carrying the result.
func Robustness(seeds []int64, measurements int) ([]RobustnessRow, error) {
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3, 4, 5}
	}
	if measurements <= 0 {
		measurements = 4000
	}
	rows := make([]RobustnessRow, 0, len(seeds))
	for _, seed := range seeds {
		cfg := DefaultAggregate()
		cfg.Seed = seed
		cfg.Measurements = measurements
		cfg.ReplanEvery = 0
		res, err := Aggregate(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: robustness seed %d: %w", seed, err)
		}
		row := RobustnessRow{Seed: seed, RelayedPct: 100 * res.RelayedFraction}
		var means, medians, pcts []float64
		for _, r := range res.Rows {
			means = append(means, r.Mean)
			medians = append(medians, r.Box.Median)
			if r.PctOK {
				pcts = append(pcts, float64(r.PctOver))
			}
		}
		row.MeanSpeedup = stats.Mean(means)
		row.MedianSpeed = stats.Mean(medians)
		row.PctOver = stats.Mean(pcts)
		rows = append(rows, row)
	}
	return rows, nil
}

// robustnessTable renders the per-seed table plus a summary band.
func robustnessTable(rows []RobustnessRow) Table {
	t := tableOf("Robustness: Figure 9 headlines across independent seeds", []Column{
		{"seed", "%6d", "seed", "%d"},
		{"relayed%", "%9.1f%%", "relayed_pct", "%.2f"},
		{"mean speedup", "%12.3fx", "mean_speedup", "%.4f"},
		{"median", "%12.3fx", "median_speedup", "%.4f"},
		{"pct>1", "%8.1f", "pct_over_1", "%.2f"},
	}, rows, func(r RobustnessRow) []any {
		return []any{r.Seed, r.RelayedPct, r.MeanSpeedup, r.MedianSpeed, r.PctOver}
	})
	var relayed, mean []float64
	for _, r := range rows {
		relayed = append(relayed, r.RelayedPct)
		mean = append(mean, r.MeanSpeedup)
	}
	if len(rows) > 1 {
		t.Notes = append(t.Notes, fmt.Sprintf("across seeds: relayed %.1f%%±%.1f, mean speedup %.3f±%.3f (paper: 26%%, 1.0575-1.09)",
			stats.Mean(relayed), stats.StdDev(relayed),
			stats.Mean(mean), stats.StdDev(mean)))
	}
	return t
}
