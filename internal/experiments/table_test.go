package experiments

import (
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"github.com/netlogistics/lsl/internal/simtime"
	"github.com/netlogistics/lsl/internal/stats"
	"github.com/netlogistics/lsl/internal/trace"
)

// ramp is a series that acknowledges size bytes linearly over secs.
func ramp(name string, size int64, secs float64) *trace.Series {
	s := trace.NewSeries(name)
	for i := 0; i <= 10; i++ {
		s.Observe(simtime.Time(secs*float64(i)/10), size*int64(i)/10)
	}
	return s
}

// TestTableRendersTextAndCSV renders small constructed results, runs
// no experiment, and holds every table to the same contract: the text
// names the result, and the CSV parses with encoding/csv, every record
// as wide as its header.
func TestTableRendersTextAndCSV(t *testing.T) {
	box := stats.Box{Min: 0.6, Q1: 0.9, Median: 1.05, Q3: 1.2, Max: 1.7}
	cases := []struct {
		name   string
		table  Table
		text   string   // a line the text must contain
		header []string // the CSV header
		rows   int      // CSV data records
		check  func(t *testing.T, recs [][]string)
	}{
		{
			name: "bandwidth curve",
			table: curveTable(BandwidthCurve{Title: "Figure 2", Via: "denver", Iterations: 2,
				Sizes: []int64{1 << 20, 2 << 20}, DirectMbit: []float64{10, 20}, LSLMbit: []float64{15, 0}}),
			text:   "        1M          10.00          15.00     1.50x",
			header: []string{"size_mb", "direct_mbit", "lsl_mbit", "speedup"},
			rows:   2,
			check: func(t *testing.T, recs [][]string) {
				for _, r := range recs[1:] {
					for _, f := range r {
						if _, err := strconv.ParseFloat(f, 64); err != nil {
							t.Fatalf("non-numeric field %q", f)
						}
					}
				}
			},
		},
		{
			name: "sequence traces",
			table: tracesTable(SeqTraces{Title: "Figure 5",
				Sub1: ramp("a-m", 64<<20, 4), Sub2: ramp("m-b", 64<<20, 6), Direct: ramp("a-b", 64<<20, 8),
				DepotPipeline: 32 << 20}),
			text:   "   time(s)              a-m              m-b              a-b",
			header: []string{"time_s", "sublink1_mb", "sublink2_mb", "direct_mb"},
			rows:   101,
			check: func(t *testing.T, recs [][]string) {
				// Sequence columns are monotone and end at the full 64 MB.
				var prev [3]float64
				for _, r := range recs[1:] {
					for c := 1; c <= 3; c++ {
						v, err := strconv.ParseFloat(r[c], 64)
						if err != nil || v < prev[c-1] {
							t.Fatalf("column %d: %q after %v", c, r[c], prev[c-1])
						}
						prev[c-1] = v
					}
				}
				if prev != [3]float64{64, 64, 64} {
					t.Fatalf("series end at %v MB, want 64", prev)
				}
			},
		},
		{
			name: "aggregate",
			table: aggregateTable(AggregateResult{Hosts: 142, Measurements: 600, RelayedFraction: 0.3, Rows: []stats.SizeRow{
				{Size: 1 << 20, Cases: 7, Mean: 1.05, Box: box, PctOver: 44, PctOK: true},
				{Size: 64 << 20, Cases: 9, Mean: 0.9, Box: box},
			}}),
			text:   "   64M      9    0.900x    0.600    0.900    1.050    1.200    1.700    >100",
			header: []string{"size_mb", "cases", "mean", "min", "q1", "median", "q3", "max", "pct_over_1"},
			rows:   2,
			check: func(t *testing.T, recs [][]string) {
				if recs[1][8] != "44" || recs[2][8] != "-1" {
					t.Fatalf("crossover fields %q, %q; want 44, -1", recs[1][8], recs[2][8])
				}
			},
		},
		{
			name: "core",
			table: coreTable(CoreResult{Universities: 10, Depots: 11, RelayedPairs: 3, TotalPairs: 4,
				SampleRelayPath: []string{"a", "m", "b"},
				Rows:            []stats.SizeRow{{Size: 16 << 20, Cases: 4, Box: box}, {Size: 128 << 20, Cases: 4, Box: box}}}),
			text:   "sample scheduled path: a -> m -> b",
			header: []string{"size_mb", "pairs", "min", "q1", "median", "q3", "max"},
			rows:   2,
		},
		{
			name: "multipath",
			table: multipathTable([]MultipathRow{
				{Paths: 1, Mbit: 19, Speedup: 1, Predicted: 20, Verified: true},
				{Paths: 2, Mbit: 34, Speedup: 1.8, Predicted: 40, Stolen: 3},
			}),
			text:   "     2        34.00     1.80x           40.00       3      FAIL",
			header: []string{"paths", "mbit", "speedup", "forecast_mbit", "stolen", "digest"},
			rows:   2,
		},
		{
			name: "freshness, left-aligned text",
			table: freshnessTable([]FreshnessRow{
				{Policy: "static plan", MeanSpeedup: 1.011, Cases: 140},
				{Policy: "replan, every 50", MeanSpeedup: 1.042, Cases: 138},
			}),
			text:   "policy               mean speedup    cases",
			header: []string{"policy", "mean_speedup", "cases"},
			rows:   2,
			check: func(t *testing.T, recs [][]string) {
				if recs[2][0] != "replan, every 50" {
					t.Fatalf("quoted field read back as %q", recs[2][0])
				}
			},
		},
		{
			name: "robustness, a literal after the verb",
			table: robustnessTable([]RobustnessRow{
				{Seed: 1, RelayedPct: 34.7, MeanSpeedup: 1.041, MedianSpeed: 1.018, PctOver: 46.6},
				{Seed: 2, RelayedPct: 29.5, MeanSpeedup: 1.185, MedianSpeed: 1.051, PctOver: 44.7},
			}),
			text:   "  seed   relayed%  mean speedup        median    pct>1",
			header: []string{"seed", "relayed_pct", "mean_speedup", "median_speedup", "pct_over_1"},
			rows:   2,
		},
		{
			name:   "trees, CSV-only columns",
			table:  treesTable(0.1),
			text:   "path to bell.uiuc.edu, epsilon=0.10: ash.ucsb.edu -> bell.uiuc.edu",
			header: []string{"epsilon", "node", "parent", "cost"},
			rows:   10,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			text := tc.table.Text()
			if !strings.Contains(text, tc.text+"\n") {
				t.Fatalf("text lacks %q:\n%s", tc.text, text)
			}
			recs, err := csv.NewReader(strings.NewReader(tc.table.CSV())).ReadAll()
			if err != nil {
				t.Fatalf("CSV does not parse: %v\n%s", err, tc.table.CSV())
			}
			if strings.Join(recs[0], ",") != strings.Join(tc.header, ",") {
				t.Fatalf("header = %v, want %v", recs[0], tc.header)
			}
			if len(recs)-1 != tc.rows {
				t.Fatalf("%d data records, want %d", len(recs)-1, tc.rows)
			}
			if tc.check != nil {
				tc.check(t, recs)
			}
		})
	}
}
