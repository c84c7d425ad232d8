package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json as the benchmark driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesTables fails when BENCHMARK.json and the metric and
// workload tables in this package disagree.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the package %q", i, m.Workloads[i].Name, w.name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the package %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range endToEnd {
		g := m.EndToEnd[i]
		if g.Name != e.name || g.Unit != e.unit || g.Better != e.better || g.Bound != e.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the package {%s %s %s %g}", i, g, e.name, e.unit, e.better, e.bound)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the package %d", len(m.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		g := m.PerLayer[i]
		if g.Name != l.name || g.Unit != l.unit || g.Better != l.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the package {%s %s %s}", i, g, l.name, l.unit, l.better)
		}
	}
}

// TestQuickSmoke runs the whole benchmark the way -quick does — in this
// process, one short repetition per workload, short probes, no multi-core
// probe — and checks that every metric BENCHMARK.json names comes out
// exactly once, finite, under a well-formed name, and that every workload's
// outputs were correct.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few hundred milliseconds")
	}
	m := readManifest(t)
	res, err := runAll(1, 0, 1, true, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Claim != nil {
		t.Errorf("the benchmark claims %q; it must claim nothing", *res.Claim)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(res.Workloads) != len(m.Workloads) {
		t.Fatalf("%d workloads ran, BENCHMARK.json lists %d", len(res.Workloads), len(m.Workloads))
	}
	// A per-layer metric is emitted once when exactly one place measures it:
	// every workload for probes, spans and counts, its home workload's
	// traced run otherwise.
	emitted := map[string]int{}
	for i, wr := range res.Workloads {
		if wr.Name != m.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, wr.Name, m.Workloads[i].Name)
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d operations failed: %v", wr.Name, wr.Correct, wr.Failed, wr.Attempted, wr.Problems)
		}
		if len(wr.EndToEnd) != len(m.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, BENCHMARK.json lists %d", wr.Name, len(wr.EndToEnd), len(m.EndToEnd))
		}
		for _, e := range m.EndToEnd {
			mv, ok := wr.EndToEnd[e.Name]
			if v := float64(mv.Value); !ok || math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v); want finite and non-zero", wr.Name, e.Name, v, ok)
			}
		}
		for k, v := range wr.PerLayer {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v", wr.Name, k, v)
			}
		}
		for _, l := range perLayer {
			_, ok := wr.PerLayer[l.name]
			skipped := res.Plan.SkipMP && l.home == "orb_pipelined" && strings.HasPrefix(l.name, "orb.mp_probe_")
			switch {
			case l.measuredOn(wr.Name) && !ok && !skipped:
				t.Errorf("%s: per-layer metric %s is missing", wr.Name, l.name)
			case !l.measuredOn(wr.Name) && ok:
				t.Errorf("%s: per-layer metric %s reported by a workload that does not measure it", wr.Name, l.name)
			}
			if ok && (l.home != "" && l.home != "*" && l.home != "orb") {
				emitted[l.name]++
			}
		}
	}
	for _, l := range m.PerLayer {
		if !name.MatchString(l.Name) {
			t.Errorf("per-layer metric name %q is malformed", l.Name)
		}
	}
	for _, e := range m.EndToEnd {
		if !name.MatchString(e.Name) {
			t.Errorf("end-to-end metric name %q is malformed", e.Name)
		}
	}
	for n, c := range emitted {
		if c != 1 {
			t.Errorf("per-layer metric %s emitted %d times, want once", n, c)
		}
	}
}
