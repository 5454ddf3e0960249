// Command lsl-exp regenerates the paper's tables and figures and the
// repository's ablation studies. Every name it accepts is an entry of
// the internal/experiments registry; run it without arguments for the
// list.
//
// Usage:
//
//	lsl-exp [flags] <experiment>
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/netlogistics/lsl/internal/experiments"
	"github.com/netlogistics/lsl/internal/workload"
)

// parseArrival decodes the -arrival flag.
func parseArrival(s string) (workload.ArrivalProcess, error) {
	kind, arg, _ := strings.Cut(s, ":")
	switch kind {
	case "":
		return nil, nil
	case "poisson":
		rate, err := strconv.ParseFloat(arg, 64)
		return workload.PoissonArrivals{Rate: rate}, err
	case "uniform":
		gap, err := time.ParseDuration(arg)
		return workload.UniformArrivals{Every: gap}, err
	case "burst":
		n, gap, _ := strings.Cut(arg, ":")
		size, err1 := strconv.Atoi(n)
		every, err2 := time.ParseDuration(gap)
		return workload.BurstArrivals{Size: size, Gap: every}, errors.Join(err1, err2)
	}
	return nil, fmt.Errorf("unknown process %q (want poisson:<rate/s>, uniform:<gap> or burst:<n>:<gap>)", kind)
}

func main() {
	p := experiments.DefaultParams()
	flag.Int64Var(&p.Seed, "seed", p.Seed, "random seed for every experiment")
	flag.IntVar(&p.Iterations, "iterations", p.Iterations, "runs per configuration for the Section 3 figures (paper: 10)")
	flag.IntVar(&p.Measurements, "measurements", p.Measurements, "measurement budget for the aggregate evaluation (paper: 362,895)")
	flag.Float64Var(&p.Epsilon, "epsilon", p.Epsilon, "edge-equivalence for the tree comparison")
	flag.IntVar(&p.Stripes, "stripes", p.Stripes, "largest stripe count for the striping sweep (doubling from 1)")
	flag.IntVar(&p.Paths, "paths", p.Paths, "largest route count for the multipath sweep (1..N)")
	flag.IntVar(&p.Sessions, "sessions", p.Sessions, "session count for fairness/loadgen (0 = experiment default)")
	flag.BoolVar(&p.Reliable, "reliable", p.Reliable, "loadgen soak mode: route transfers through retry + failover")
	flag.IntVar(&p.MaxSessions, "max-sessions", p.MaxSessions, "loadgen per-depot concurrent session cap (0 = unlimited)")
	flag.IntVar(&p.QueueDepth, "queue-depth", p.QueueDepth, "loadgen per-depot admission queue depth")
	arrival := flag.String("arrival", "", "loadgen arrival process: poisson:<rate/s>, uniform:<gap>, burst:<n>:<gap>, or empty for all-at-once")
	format := flag.String("format", "table", "output format: table or csv")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lsl-exp [flags] <experiment>\n\n%s\nFlags:\n", experiments.Usage())
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 || *format != "table" && *format != "csv" {
		flag.Usage()
		os.Exit(2)
	}
	arr, err := parseArrival(*arrival)
	if err != nil {
		fail(fmt.Errorf("-arrival %s: %w", *arrival, err))
	}
	p.Arrival = arr
	entries, err := experiments.Lookup(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsl-exp:", err)
		flag.Usage()
		os.Exit(2)
	}
	csv := *format == "csv"
	for i, e := range entries {
		tables, err := e.Run(p)
		if err != nil {
			fail(fmt.Errorf("%s: %w", e.Name, err))
		}
		for j, t := range tables {
			if !csv {
				fmt.Println(t.Text())
				continue
			}
			if i+j > 0 {
				fmt.Println()
			}
			fmt.Print(t.CSV())
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lsl-exp:", err)
	os.Exit(1)
}
