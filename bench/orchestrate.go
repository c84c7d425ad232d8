package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
	"time"
)

const (
	defaultReps = 5
	// Full-report defaults: R × (1 s warm-up + 5 s measured) per workload.
	reportWarmupS = 1.0
	reportWindowS = 5.0
	// Driver runs split --seconds over the repetitions and warm up for less.
	driverWarmupS = 0.5
	// minWindowS is the shortest window a repetition is given, whatever
	// --seconds says.
	minWindowS = 0.2
	// killAfter is how long past warm-up + window the parent waits before it
	// kills a child (the child's own hangGrace fires first).
	killAfter = 15 * time.Second
)

// childSpec is what the parent passes a child on its command line.
type childSpec struct {
	Rep    *repConfig   `json:"rep,omitempty"`
	Probes *probeBudget `json:"probes,omitempty"`
}

// childOut is the child's answer: the last line of its standard output.
type childOut struct {
	Rep    *repResult         `json:"rep,omitempty"`
	Probes map[string]float64 `json:"probes,omitempty"`
	Err    string             `json:"err,omitempty"`
}

// childMain runs one repetition or the probe set in this process and prints
// the result as one JSON line.
func childMain(spec string) int {
	var cs childSpec
	if err := json.Unmarshal([]byte(spec), &cs); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: bad spec:", err)
		return 2
	}
	var out childOut
	switch {
	case cs.Rep != nil:
		res, err := runRep(*cs.Rep, 0)
		if err != nil {
			out.Err = err.Error()
		} else {
			out.Rep = &res
		}
	case cs.Probes != nil:
		m, err := runProbes(*cs.Probes)
		out.Probes = m
		if err != nil {
			out.Err = err.Error()
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	// Returning ends the process whether or not a hung repetition left
	// callers blocked inside the program.
	return 0
}

// launcher runs repetitions and probes, each in a child process of this
// binary (fresh pools, a clean set-up time, and a wedge cannot leak into the
// next repetition) or, for the smoke test, in this process.
type launcher struct {
	exe string    // "" runs in-process
	log io.Writer // progress
}

// call runs one child to completion, killing it after timeout.
func (l launcher) call(cs childSpec, timeout time.Duration) (childOut, error) {
	spec, err := json.Marshal(cs)
	if err != nil {
		return childOut{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, l.exe, "-child", string(spec))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run() // waits for the child, killed or not
	if ctx.Err() != nil {
		return childOut{}, fmt.Errorf("killed by the watchdog after %v", timeout)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out childOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return childOut{}, fmt.Errorf("no result (%v): %s", runErr, strings.TrimSpace(stderr.String()))
	}
	return out, nil
}

// rep runs one repetition. It never fails: a child that crashed, was killed
// or could not set up yields a row whose only operation failed.
func (l launcher) rep(cfg repConfig) repResult {
	var res repResult
	var err error
	if l.exe == "" {
		res, err = runRep(cfg, nowNs())
	} else {
		window := cfg.WindowS * float64(sliceNs+calNs) / float64(sliceNs) // slices and the calibrations between them
		timeout := time.Duration((cfg.WarmupS+window)*float64(time.Second)) + killAfter
		var out childOut
		out, err = l.call(childSpec{Rep: &cfg}, timeout)
		if err == nil && out.Rep == nil {
			err = errors.New(out.Err)
		}
		if err == nil {
			res = *out.Rep
		}
	}
	if err != nil {
		w, _ := findWorkload(cfg.Workload)
		nan := num(math.NaN())
		none := legSummary{P50: nan, Tail: nan, OpsPerS: nan, Speed: nan}
		res = repResult{
			Workload: cfg.Workload, Trace: cfg.Trace, Gomaxprocs: w.gomaxprocs(),
			Attempted: 1, Failed: 1, FirstError: err.Error(), Hung: true,
			SetupS: nan, AllocsPerOp: nan, MemPeakMB: nan, Main: none, Baseline: none,
		}
	}
	status := "ok"
	if res.Failed > 0 || len(res.Problems) > 0 {
		status = fmt.Sprintf("%d of %d failed: %s %s", res.Failed, res.Attempted, res.FirstError, strings.Join(res.Problems, "; "))
	}
	fmt.Fprintf(l.log, "  %-28s trace=%-5v p50 %10.3f us (raw %10.3f)  %12.0f ops/s  speed %.3f  %s\n",
		cfg.Workload, cfg.Trace, float64(res.Main.P50)/1e3, float64(res.Main.Raw.P50)/1e3, float64(res.Main.OpsPerS), float64(res.Main.Speed), status)
	return res
}

// probes runs the probe set.
func (l launcher) probes(b probeBudget) (map[string]float64, error) {
	if l.exe == "" {
		return runProbes(b)
	}
	out, err := l.call(childSpec{Probes: &b}, 120*time.Second)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	if out.Err != "" {
		err = errors.New(out.Err)
	}
	return out.Probes, err
}

// plan is how long and how often everything runs.
type plan struct {
	Seed      int64       `json:"seed"`
	Reps      int         `json:"repetitions"`
	WarmupS   float64     `json:"warmup_s"`
	WindowS   float64     `json:"window_s"` // per repetition
	CellS     float64     `json:"cell_window_s"`
	ProbeS    float64     `json:"mp_probe_window_s"`
	Probes    probeBudget `json:"-"`
	SkipMP    bool        `json:"skip_mp_probe,omitempty"`
	InProcess bool        `json:"in_process,omitempty"`
}

// metricValue is one end-to-end metric of one workload: the median over
// repetitions with the quartiles beside it.
type metricValue struct {
	Value  num     `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Q1     num     `json:"q1"`
	Q3     num     `json:"q3"`
	Reps   []num   `json:"reps"`
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	Name       string `json:"name"`
	Gomaxprocs int    `json:"gomaxprocs"`
	Callers    int    `json:"callers"`
	Transport  string `json:"transport"`
	Attempted  int64  `json:"attempted"`
	Failed     int64  `json:"failed"`
	Correct    bool   `json:"correct"`
	// Problems are exact-count checks that did not hold and first errors.
	Problems []string `json:"problems,omitempty"`
	// TailQ and TailBeyond say which percentile rtt_p99_us is and the fewest
	// samples any slice had beyond it; Samples the fewest a slice held.
	TailQ      float64 `json:"tail_q"`
	TailBeyond int     `json:"tail_beyond"`
	Samples    int     `json:"samples_per_slice_min"`
	// Speed is the median over repetitions of the speed factor the time-based
	// end-to-end metrics include. The Raw values are the medians over
	// repetitions of the plain statistics of every sample of the window as
	// the clock gave them, and QuietShare that of the quiet share of the
	// main-leg slices: what the quiet-slice statistics leave out.
	Speed      num                    `json:"speed_factor"`
	RawP50     num                    `json:"raw_rtt_p50_ns"`
	RawTail    num                    `json:"raw_rtt_tail_ns"`
	RawOpsPerS num                    `json:"raw_ops_per_s"`
	QuietShare num                    `json:"quiet_share"`
	EndToEnd   map[string]metricValue `json:"end_to_end"`
	PerLayer   map[string]float64     `json:"per_layer,omitempty"`
	Reps       []repResult            `json:"repetitions"`
	Traced     *repResult             `json:"traced_repetition,omitempty"`
}

// summarizeReps reduces a workload's untraced repetitions.
func summarizeReps(w workload, reps []repResult) workloadResult {
	wr := workloadResult{
		Name: w.name, Gomaxprocs: w.gomaxprocs(), Callers: w.callers, Transport: w.transport,
		Correct: true, EndToEnd: map[string]metricValue{}, Reps: reps,
		TailQ: 0.99, TailBeyond: math.MaxInt, Samples: math.MaxInt,
	}
	for i := range reps {
		r := &reps[i]
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		if len(r.Problems) > 0 {
			wr.Correct = false
			wr.Problems = append(wr.Problems, r.Problems...)
		}
		if r.FirstError != "" {
			wr.Problems = append(wr.Problems, r.FirstError)
			if strings.Contains(r.FirstError, errWrongReply.Error()) {
				wr.Correct = false
			}
		}
		wr.TailQ = math.Min(wr.TailQ, r.Main.TailQ)
		wr.TailBeyond = min(wr.TailBeyond, r.Main.Beyond)
		wr.Samples = min(wr.Samples, r.Main.Samples)
	}
	med := func(of func(*legSummary) float64) num {
		vals := make([]float64, len(reps))
		for i := range reps {
			vals[i] = of(&reps[i].Main)
		}
		return overReps(vals).Median
	}
	wr.Speed = med(func(m *legSummary) float64 { return float64(m.Speed) })
	wr.RawP50 = med(func(m *legSummary) float64 { return float64(m.Raw.P50) })
	wr.RawTail = med(func(m *legSummary) float64 { return float64(m.Raw.Tail) })
	wr.RawOpsPerS = med(func(m *legSummary) float64 { return float64(m.RawOpsPerS) })
	wr.QuietShare = med(func(m *legSummary) float64 { return float64(m.Quiet) / float64(m.Slices) })
	for _, m := range endToEnd {
		vals := make([]float64, len(reps))
		mv := metricValue{Unit: m.unit, Better: m.better, Bound: m.bound}
		for i := range reps {
			vals[i] = m.of(&reps[i])
			mv.Reps = append(mv.Reps, num(vals[i]))
		}
		q := overReps(vals)
		mv.Value, mv.Q1, mv.Q3 = q.Median, q.Q1, q.Q3
		wr.EndToEnd[m.name] = mv
	}
	return wr
}

// runUntraced runs R untraced repetitions of every workload in ws,
// interleaved round-robin so machine drift spreads over all of them.
func (l launcher) runUntraced(ws []workload, p plan) map[string][]repResult {
	out := map[string][]repResult{}
	for r := 0; r < p.Reps; r++ {
		for _, w := range ws {
			out[w.name] = append(out[w.name], l.rep(repConfig{
				Workload: w.name, Seed: p.Seed, WarmupS: p.WarmupS, WindowS: p.WindowS,
			}))
		}
	}
	return out
}

// runTraced produces w's per-layer metrics: one traced repetition, w's
// cells, and (shared between workloads by the caller) the probes. untraced is
// the summary of w's untraced repetitions: its raw median round trip is the
// base of the tracing overhead, and its raw statistics are reported as
// bench.raw_*. Everything in the per-layer bill is raw, as the clock gave it
// (a difference of two medians would drown in the noise the speed factors
// bring).
func (l launcher) runTraced(w workload, p plan, untraced workloadResult, probes map[string]float64) (map[string]float64, *repResult) {
	untracedP50 := float64(untraced.RawP50)
	m := map[string]float64{}
	for k, v := range probes {
		m[k] = v
	}
	tr := l.rep(repConfig{Workload: w.name, Seed: p.Seed, WarmupS: p.WarmupS, WindowS: p.WindowS, Trace: true})
	for k, v := range tr.Layer {
		m[k] = v
	}
	m["bench.trace_overhead_ns"] = float64(tr.Main.Raw.P50) - untracedP50
	m["bench.speed_factor"] = float64(tr.Main.Speed)
	m["bench.quiet_share"] = float64(untraced.QuietShare)
	m["bench.raw_rtt_p50_us"] = untracedP50 / 1e3
	m["bench.raw_rtt_p99_us"] = float64(untraced.RawTail) / 1e3
	m["bench.raw_ops_per_s"] = float64(untraced.RawOpsPerS)

	cell := func(name string, window float64) repResult {
		return l.rep(repConfig{Workload: name, Seed: p.Seed, WarmupS: math.Min(p.WarmupS, 0.3), WindowS: window})
	}
	for _, c := range cellsOf(w.name) {
		switch c.name {
		case "pingpong_sync/telemetry_off":
			off := cell(c.name, p.CellS)
			m["telemetry.on_off_delta_ns"] = untracedP50 - float64(off.Main.Raw.P50)
		case "orb_lockstep/32B", "orb_lockstep/1024B":
			r := cell(c.name, p.CellS)
			size := strings.TrimPrefix(c.name, "orb_lockstep/")
			m["orb.rtt_p50_us."+size] = float64(r.Main.Raw.P50) / 1e3
			m["rtzen.rtt_p50_us."+size] = float64(r.Baseline.Raw.P50) / 1e3
		case "orb_lockstep/view":
			m["orb.invoke_view_rtt_us"] = float64(cell(c.name, p.CellS).Main.Raw.P50) / 1e3
		case "orb_lockstep/oneway":
			m["orb.oneway_submit_ns"] = float64(cell(c.name, p.CellS).Main.Raw.P50)
		case "orb_pipelined/coalesce":
			r := cell(c.name, p.CellS)
			m["orb.pipelined_coalesce_ops_per_s"] = float64(r.Main.RawOpsPerS)
			m["orb.coalesce_batch_frames_p50"] = r.CoalesceP50
		case "orb_pipelined/sync":
			m["orb.pipelined_sync_ops_per_s"] = float64(cell(c.name, p.CellS).Main.RawOpsPerS)
		case "orb_pipelined/mp":
			if p.SkipMP {
				continue
			}
			r := cell(c.name, p.ProbeS)
			m["orb.mp_probe_ops_per_s"] = float64(r.Main.RawOpsPerS)
			m["orb.mp_probe_failed_fraction"] = float64(r.Failed) / float64(max(r.Attempted, 1))
			m["orb.mp_probe_first_failure_s"] = p.ProbeS
			if r.Failed > 0 {
				m["orb.mp_probe_first_failure_s"] = r.FirstFailS
			}
		}
	}
	if w.name == "orb_lockstep" {
		for k, v := range stageBill(m, float64(tr.Main.Raw.P50), float64(tr.Baseline.Raw.P50)).metrics() {
			m[k] = v
		}
	}
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(m, k)
		}
	}
	return m, &tr
}
