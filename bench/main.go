// Command bench is the repository's benchmark: four workloads, eight
// end-to-end metrics, and a per-layer bill measured from outside the program.
//
//	bash bench/run.sh                          # every workload, R repetitions each, full report
//	bash bench/run.sh -compare A.json B.json   # verdict per workload × end-to-end metric
//	bash bench/run.sh --workload orb_lockstep --seed 1 --seconds 24 --trace 0
//
// run.sh builds this module (it has its own go.mod) under .bench_build/ and
// runs it; `go run .` from this directory does the same with Go's default
// cache. The last form is the one BENCHMARK.json names: one workload per run,
// the result as one JSON object on the last line of standard output. See
// README.md for the method.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the driver's result line (default: all workloads, full report)")
		seed         = flag.Int64("seed", 1, "workload seed: payload bytes, tenant id, which leg of an alternating pair goes first")
		seconds      = flag.Float64("seconds", 0, "measured seconds per workload, split over the repetitions (default 25 = 5 × 5 s)")
		trace        = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		reps         = flag.Int("reps", defaultReps, "repetitions per workload, each in its own child process")
		out          = flag.String("out", "", "full report: also write the result JSON to this file")
		compare      = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
		quick        = flag.Bool("quick", false, "smoke run: in-process, 1 repetition × 0.3 s, short probes, no multi-core probe")
		child        = flag.String("child", "", "internal: run one repetition described by this JSON and print its result")
	)
	flag.Parse()
	if *reps < 1 {
		fmt.Fprintln(os.Stderr, "bench: -reps must be at least 1")
		os.Exit(2)
	}

	switch {
	case *child != "":
		os.Exit(childMain(*child))
	case *compare:
		os.Exit(compareMain(flag.Args()))
	case *workloadName != "":
		os.Exit(driverMain(*workloadName, *seed, *seconds, *trace != 0, *reps))
	default:
		os.Exit(reportMain(*seed, *seconds, *reps, *quick, *out))
	}
}
