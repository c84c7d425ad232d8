package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of a comparison. A metric whose repetitions spread wider than its
// bound cannot resolve a change of the bound's size either way: it is
// reported as unresolved, never as same.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictSame       = "same"
	verdictUnresolved = "unresolved"
)

// judge compares b against a for a metric with the given direction and
// bound. change is b's move in the worse direction as a share of a's median
// (negative: b is better); spread is the wider of the two runs' quartile
// distances as a share of their medians.
func judge(a, b metricValue) (verdict string, change, spread float64) {
	av, bv := float64(a.Value), float64(b.Value)
	spread = math.Max(quartiles{Q1: a.Q1, Median: a.Value, Q3: a.Q3}.spread(), quartiles{Q1: b.Q1, Median: b.Value, Q3: b.Q3}.spread())
	if math.IsNaN(av) || math.IsNaN(bv) {
		return verdictUnresolved, math.NaN(), spread
	}
	switch {
	case av == bv:
		change = 0
	case av == 0:
		change = math.Inf(1)
		if (bv < av) == (a.Better == "lower") {
			change = math.Inf(-1)
		}
	default:
		change = (bv - av) / math.Abs(av)
		if a.Better == "higher" {
			change = -change
		}
	}
	switch {
	case spread > a.Bound:
		return verdictUnresolved, change, spread
	case change > a.Bound:
		return verdictWorse, change, spread
	case change < -a.Bound:
		return verdictBetter, change, spread
	default:
		return verdictSame, change, spread
	}
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain prints, per workload × end-to-end metric, B's change against
// A with a verdict, and returns 1 when any metric is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
		return 2
	}
	a, err := readResult(args[0])
	if err == nil {
		var b *result
		if b, err = readResult(args[1]); err == nil {
			return compareResults(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareResults(a, b *result) int {
	fmt.Printf("A: commit %s (dirty %v) seed %d R=%d x %.3g s\nB: commit %s (dirty %v) seed %d R=%d x %.3g s\n\n",
		a.Meta.GitSHA, a.Meta.GitDirty, a.Plan.Seed, a.Plan.Reps, a.Plan.WindowS,
		b.Meta.GitSHA, b.Meta.GitDirty, b.Plan.Seed, b.Plan.Reps, b.Plan.WindowS)
	byName := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	tally := map[string]int{}
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tunit\tchange (+ is worse)\tspread\tbound\tverdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t(missing in B)\n", wa.Name)
			tally[verdictUnresolved]++
			continue
		}
		for _, em := range endToEnd {
			ma, mb := wa.EndToEnd[em.name], wb.EndToEnd[em.name]
			v, change, spread := judge(ma, mb)
			tally[v]++
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.2f%%\t%.2f%%\t%.3g%%\t%s\n",
				wa.Name, em.name, float64(ma.Value), float64(mb.Value), em.unit, change*100, spread*100, ma.Bound*100, v)
		}
	}
	tw.Flush()
	fmt.Printf("\n%d better, %d same, %d worse, %d unresolved\n",
		tally[verdictBetter], tally[verdictSame], tally[verdictWorse], tally[verdictUnresolved])
	if tally[verdictWorse] > 0 {
		return 1
	}
	return 0
}
