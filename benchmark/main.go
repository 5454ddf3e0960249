// Command benchmark is the repo's end-to-end and per-layer benchmark:
// a chain of depots on loopback TCP, the emulated TwoPath WAN and a
// 142-host control round, each driven closed-loop for a fixed number
// of operations with every delivered byte checked. See README.md.
//
//	go run ./benchmark -seed 1                 every workload, one process each
//	go run ./benchmark -seed 1 -trace 1        the traced run of every workload
//	go run ./benchmark -workload tcp-bulk -seed 1 -seconds 20 -trace 0
//	go run ./benchmark compare A.json B.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// scratchDir holds what a run leaves behind; .gitignore names it.
const scratchDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in this process (default: all, each in a process of its own)")
	seed := fs.Int64("seed", 1, "seed of every generated input: payload, core.Config.Seed, probe noise, topology, catalogue")
	seconds := fs.Int("seconds", refSeconds, "sizes the fixed op counts: a run takes about this long on the reference 2-core box")
	trace := fs.Int("trace", 0, "1 = the traced run (per-layer metrics, spans) instead of the end-to-end run")
	out := fs.String("out", "", "result file of a whole set (default "+scratchDir+"/result-seed<seed>[-trace].json)")
	spans := fs.String("spans", "", "span JSONL of a traced run (default "+scratchDir+"/spans-<workload>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	scale := float64(*seconds) / refSeconds

	if *workload == "" {
		if *out == "" {
			suffix := ""
			if *trace == 1 {
				suffix = "-trace"
			}
			*out = filepath.Join(scratchDir, fmt.Sprintf("result-seed%d%s.json", *seed, suffix))
		}
		return runSet(*seed, *seconds, *trace, *out, stdout, stderr)
	}

	spec, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	var res result
	if *trace == 1 {
		t, err := tracedRun(spec, *seed, scale)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		if *spans == "" {
			*spans = filepath.Join(scratchDir, "spans-"+spec.Name+".jsonl")
		}
		if err := os.MkdirAll(filepath.Dir(*spans), 0o755); err == nil {
			err = writeJSONL(*spans, t.tracers...)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: spans: %v\n", err)
			return 1
		}
		res = newResult(t.pass, perLayer, t.metrics)
	} else {
		r, err := runWorkload(spec, runOpts{seed: *seed, scale: scale})
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		res = newResult(r, endToEnd, r.endToEnd())
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d ops failed or left state behind: %s\n", spec.Name, res.Failed, res.Attempted, res.note)
		return 1
	}
	return 0
}
