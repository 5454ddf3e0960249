package experiments

import (
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
)

// parseCSV reads a table's CSV and checks every record is wantCols wide.
func parseCSV(t *testing.T, out string, wantCols int) [][]string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("csv does not parse: %v\n%s", err, out)
	}
	if len(rows) < 2 {
		t.Fatalf("csv too short:\n%s", out)
	}
	for i, r := range rows {
		if len(r) != wantCols {
			t.Fatalf("line %d has %d columns, want %d: %q", i, len(r), wantCols, r)
		}
	}
	return rows
}

// The tests below run the real experiments (small) and check the CSV
// their registry tables render; TestTableRendersTextAndCSV covers the
// same renderers over constructed results.

func TestBandwidthCurveCSV(t *testing.T) {
	c, err := Fig2(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, curveTable(c).CSV(), 4)
	if rows[0][0] != "size_mb" {
		t.Fatalf("header = %v", rows[0])
	}
	if len(rows)-1 != len(c.Sizes) {
		t.Fatalf("data rows = %d, want %d", len(rows)-1, len(c.Sizes))
	}
	for _, r := range rows[1:] {
		for _, f := range r {
			if _, err := strconv.ParseFloat(f, 64); err != nil {
				t.Fatalf("non-numeric field %q", f)
			}
		}
	}
}

func TestSeqTracesCSV(t *testing.T) {
	r, err := Fig5(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, tracesTable(r).CSV(), 4)
	if rows[0][0] != "time_s" {
		t.Fatalf("header = %v", rows[0])
	}
	// Sequence columns are monotone non-decreasing.
	var prev [3]float64
	for _, row := range rows[1:] {
		for c := 1; c <= 3; c++ {
			v, err := strconv.ParseFloat(row[c], 64)
			if err != nil {
				t.Fatalf("bad field %q", row[c])
			}
			if v < prev[c-1] {
				t.Fatalf("column %d not monotone: %v after %v", c, v, prev[c-1])
			}
			prev[c-1] = v
		}
	}
	// The final row reaches the full 64 MB on every series.
	last := rows[len(rows)-1]
	for c := 1; c <= 3; c++ {
		v, _ := strconv.ParseFloat(last[c], 64)
		if v < 63.5 {
			t.Fatalf("series %d ends at %v MB, want 64", c, v)
		}
	}
}

func TestAggregateCSV(t *testing.T) {
	cfg := DefaultAggregate()
	cfg.Measurements = 600
	cfg.ReplanEvery = 0
	res, err := Aggregate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, aggregateTable(res).CSV(), 9)
	if rows[0][0] != "size_mb" {
		t.Fatalf("header = %v", rows[0])
	}
}

func TestCoreCSV(t *testing.T) {
	cfg := DefaultCore()
	cfg.Reps16 = 1
	cfg.Reps128 = 1
	res, err := Core(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, coreTable(res).CSV(), 7)
	if len(rows) != 3 { // header + 16M + 128M
		t.Fatalf("rows = %d", len(rows))
	}
}
