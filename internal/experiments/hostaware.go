package experiments

import (
	"math/rand"

	"github.com/netlogistics/lsl/internal/schedule"
	"github.com/netlogistics/lsl/internal/topo"
)

// HostAwareRow summarizes one scheduler variant in the host-transit
// comparison.
type HostAwareRow struct {
	Scheduler       string
	RelayedFraction float64
	MeanSpeedup     float64
	Cases           int
}

// HostAwareComparison implements and evaluates the paper's stated
// future work: "The scheduling algorithms can be trivially extended to
// include the path through the host as another edge whose bandwidth
// must be taken into account." It runs the same pre-generated test
// schedule under the paper's scheduler (host bandwidth ignored) and the
// host-transit-aware variant, on the virtualization-limited PlanetLab
// testbed where the difference matters most.
func HostAwareComparison(seed int64, measurements int) ([]HostAwareRow, error) {
	if measurements <= 0 {
		measurements = 4000
	}
	t := topo.PlanetLab(topo.DefaultPlanetLab(), seed)
	paper, err := primedPlanner(t, schedule.DefaultEpsilon, rand.New(rand.NewSource(seed+1)), 20, false)
	if err != nil {
		return nil, err
	}
	aware, err := primedPlanner(t, schedule.DefaultEpsilon, rand.New(rand.NewSource(seed+1)), 20, true)
	if err != nil {
		return nil, err
	}

	// The shared pair pool: pairs either scheduler relays, so both
	// variants face the same workload.
	genRng := rand.New(rand.NewSource(seed + 2))
	pool, err := pairPool(t.N(), genRng, 80, func(s, d int) (bool, error) {
		r1, err := paper.Relayed(s, d)
		if err != nil {
			return false, err
		}
		r2, err := aware.Relayed(s, d)
		return r1 || r2, err
	})
	if err != nil {
		return nil, err
	}
	tests := drawTests(genRng, pool, measurements)

	var rows []HostAwareRow
	for _, variant := range []struct {
		name    string
		planner *schedule.Planner
	}{
		{"paper (host ignored)", paper},
		{"host-transit aware", aware},
	} {
		frac, err := variant.planner.RelayedFraction()
		if err != nil {
			return nil, err
		}
		speedup, _, n, err := measureTests(t, tests, seed+3, seed+4, variant.planner.Path)
		if err != nil {
			return nil, err
		}
		rows = append(rows, HostAwareRow{Scheduler: variant.name, RelayedFraction: frac, MeanSpeedup: speedup, Cases: n})
	}
	return rows, nil
}

// hostAwareTable renders the comparison.
func hostAwareTable(rows []HostAwareRow) Table {
	return tableOf("Extension: host-transit-aware scheduling (paper's future work)", []Column{
		{"scheduler", "%-22s", "scheduler", "%s"},
		{"relayed%", "%9.1f%%", "relayed_pct", "%.2f"},
		{"mean speedup", "%11.3fx", "mean_speedup", "%.4f"},
		{"cases", "%8d", "cases", "%d"},
	}, rows, func(r HostAwareRow) []any {
		return []any{r.Scheduler, 100 * r.RelayedFraction, r.MeanSpeedup, r.Cases}
	})
}
