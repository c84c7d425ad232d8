package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/telemetry"
)

// meta stamps the conditions of a run into its result.
type meta struct {
	GitSHA     string            `json:"git_sha"`
	GitDirty   bool              `json:"git_dirty"`
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"num_cpu"`
	Gomaxprocs map[string]int    `json:"gomaxprocs"` // per workload
	Transport  map[string]string `json:"transport"`
	Telemetry  bool              `json:"telemetry_on"`
	GCPercent  string            `json:"gc"`
	Started    string            `json:"started"`
}

func currentMeta() meta {
	m := meta{
		GitSHA: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Gomaxprocs: map[string]int{}, Transport: map[string]string{},
		Telemetry: telemetry.Enabled(), GCPercent: "go default (GOGC unset: 100)",
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	if v := os.Getenv("GOGC"); v != "" {
		m.GCPercent = "GOGC=" + v
	}
	// Outside a git checkout (the benchmark driver's copy) both commands
	// fail and the stamp stays "unknown".
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.GitSHA = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			m.GitDirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	for _, w := range workloads {
		m.Gomaxprocs[w.name] = w.gomaxprocs()
		m.Transport[w.name] = w.transport
	}
	return m
}

// result is the full report as written by -out and read by -compare.
type result struct {
	Meta      meta             `json:"meta"`
	Plan      plan             `json:"plan"`
	Workloads []workloadResult `json:"workloads"`
	// Claim is always null: this benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

// billRow is one part of the orb_lockstep stage bill, in ns.
type billRow struct {
	part             string
	compadres, rtzen float64
	how              string
}

// bill itemises the orb_lockstep round trip for both ORBs: unit prices from
// the probes times quantities from the counts, the servant span, and
// whatever is left — the wake-ups and hand-offs nothing outside the program
// can see. parts + residual equals the measured whole by construction.
type bill struct {
	rows                 []billRow
	wholeC, wholeZ       float64
	residualC, residualZ float64
}

func stageBill(m map[string]float64, wholeC, wholeZ float64) bill {
	codec := m["giop.marshal_request_ns"] + m["giop.decode_request_ns"] + m["giop.marshal_reply_ns"] + m["giop.decode_reply_ns"]
	b := bill{wholeC: wholeC, wholeZ: wholeZ, rows: []billRow{
		{"transport floor", m["transport.inproc_rtt_ns"], m["transport.inproc_rtt_ns"], "transport.inproc_rtt_ns"},
		{"giop codec", codec, codec, "marshal+decode of request and reply"},
		{"memory scopes", m["memory.scope_enters_per_op"] * m["memory.enter_exit_ns"], m["rtzen.scope_enters_per_op"] * m["memory.enter_exit_ns"], "scope_enters_per_op x memory.enter_exit_ns"},
		{"core port hops", m["core.port_sends_per_op"] * m["core.send_sync_ns"], 0, "core.port_sends_per_op x core.send_sync_ns"},
		{"servant", m["orb.servant_us"] * 1e3, m["rtzen.servant_us"] * 1e3, "span: servant entry to exit"},
	}}
	b.residualC, b.residualZ = wholeC, wholeZ
	for _, r := range b.rows {
		b.residualC -= r.compadres
		b.residualZ -= r.rtzen
	}
	return b
}

func (b bill) metrics() map[string]float64 {
	return map[string]float64{
		"orb.residual_us":          b.residualC / 1e3,
		"rtzen.residual_us":        b.residualZ / 1e3,
		"orb.overhead_vs_rtzen_us": (b.wholeC - b.wholeZ) / 1e3,
		"orb.ratio_vs_rtzen":       b.wholeC / b.wholeZ,
	}
}

func (b bill) print(w io.Writer) {
	fmt.Fprintln(w, "\nStage bill, orb_lockstep traced repetition (us per round trip)")
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  part\tCompadres\tRTZen\thow")
	var sumC, sumZ float64
	for _, r := range b.rows {
		fmt.Fprintf(tw, "  %s\t%.3f\t%.3f\t%s\n", r.part, r.compadres/1e3, r.rtzen/1e3, r.how)
		sumC, sumZ = sumC+r.compadres, sumZ+r.rtzen
	}
	fmt.Fprintf(tw, "  sum of parts\t%.3f\t%.3f\t\n", sumC/1e3, sumZ/1e3)
	fmt.Fprintf(tw, "  residual\t%.3f\t%.3f\torb.residual_us / rtzen.residual_us: whole - parts\n", b.residualC/1e3, b.residualZ/1e3)
	fmt.Fprintf(tw, "  measured whole\t%.3f\t%.3f\trtt_p50 of the traced repetition\n", b.wholeC/1e3, b.wholeZ/1e3)
	tw.Flush()
}

// selfExe returns the binary to re-execute for children.
func selfExe() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("cannot find my own binary for the child processes: %w", err)
	}
	return exe, nil
}

// reportMain runs every workload and prints the full report.
func reportMain(seed int64, seconds float64, reps int, quick bool, outPath string) int {
	res, err := runAll(seed, seconds, reps, quick, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printReport(os.Stdout, res)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("\nwrote %s\n", outPath)
	}
	// The summary: every end-to-end median by workload, and no claim.
	sum := map[string]any{}
	for _, wr := range res.Workloads {
		row := map[string]num{}
		for name, mv := range wr.EndToEnd {
			row[name] = mv.Value
		}
		sum[wr.Name] = row
	}
	line, err := json.Marshal(struct {
		Workloads map[string]any `json:"workloads"`
		Claim     *string        `json:"claim"`
	}{sum, nil})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\n%s\n", line)
	return 0
}

// runAll is reportMain without the printing; the smoke test calls it.
func runAll(seed int64, seconds float64, reps int, quick bool, log io.Writer) (*result, error) {
	p := plan{Seed: seed, Reps: reps, WarmupS: reportWarmupS, WindowS: reportWindowS, CellS: 1, ProbeS: 5,
		Probes: probeBudget{Each: 100 * time.Millisecond}}
	if seconds > 0 {
		p.WindowS = math.Max(minWindowS, seconds/float64(reps))
	}
	l := launcher{log: log}
	if quick {
		p = plan{Seed: seed, Reps: 1, WarmupS: 0.05, WindowS: 0.3, CellS: 0.15,
			Probes: probeBudget{Iters: 1000}, SkipMP: true, InProcess: true}
	} else {
		exe, err := selfExe()
		if err != nil {
			return nil, err
		}
		l.exe = exe
	}
	res := &result{Meta: currentMeta(), Plan: p}
	fmt.Fprintf(log, "untraced: %d repetition(s) x (%.2g s warm-up + %.2g s window) per workload\n", p.Reps, p.WarmupS, p.WindowS)
	untraced := l.runUntraced(workloads, p)
	fmt.Fprintln(log, "probes")
	probes, err := l.probes(p.Probes)
	if err != nil {
		fmt.Fprintln(log, "  probe errors:", err)
	}
	fmt.Fprintln(log, "traced repetition and cells per workload")
	for _, w := range workloads {
		wr := summarizeReps(w, untraced[w.name])
		wr.PerLayer, wr.Traced = l.runTraced(w, p, wr, probes)
		res.Workloads = append(res.Workloads, wr)
	}
	return res, nil
}

func printReport(w io.Writer, res *result) {
	m := res.Meta
	dirty := ""
	if m.GitDirty {
		dirty = "+dirty"
	}
	fmt.Fprintf(w, "bench: commit %s%s, %s, %d CPU, seed %d, R=%d x (%.2g s warm-up + %.2g s window), telemetry %v, gc %s\n",
		m.GitSHA, dirty, m.GoVersion, m.NumCPU, res.Plan.Seed, res.Plan.Reps, res.Plan.WarmupS, res.Plan.WindowS, m.Telemetry, m.GCPercent)
	fmt.Fprintln(w, "closed loop; load generated from one process; platform noise injection off; times at reference speed over the quiet slices")

	fmt.Fprintln(w, "\nEnd-to-end metrics: median over repetitions [first quartile .. third quartile]")
	for _, wr := range res.Workloads {
		fmt.Fprintf(w, "\n%s  (GOMAXPROCS %d, %d caller(s), transport: %s)\n", wr.Name, wr.Gomaxprocs, wr.Callers, wr.Transport)
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		for _, em := range endToEnd {
			mv := wr.EndToEnd[em.name]
			note := ""
			if em.name == "rtt_p99_us" {
				note = fmt.Sprintf("p%g, >= %d samples beyond it in every slice of >= %d samples", wr.TailQ*100, wr.TailBeyond, wr.Samples)
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t[%.6g .. %.6g]\tbound %.3g%% %s\t%s\n",
				em.name, float64(mv.Value), em.unit, float64(mv.Q1), float64(mv.Q3), em.bound*100, em.better, note)
		}
		tw.Flush()
		fmt.Fprintf(w, "  attempted %d, failed %d, outputs correct: %v; %.0f%% of the main-leg slices quiet; times x %.3f (speed factor)\n",
			wr.Attempted, wr.Failed, wr.Correct, float64(wr.QuietShare)*100, float64(wr.Speed))
		fmt.Fprintf(w, "  raw, every sample of the window as the clock gave it: rtt_p50 %.6g us, rtt_p99 %.6g us, %.6g ops/s\n",
			float64(wr.RawP50)/1e3, float64(wr.RawTail)/1e3, float64(wr.RawOpsPerS))
		for _, p := range wr.Problems {
			fmt.Fprintf(w, "  problem: %s\n", p)
		}
	}

	fmt.Fprintln(w, "\nPer-layer metrics (traced repetition, cells and probes; - means not measured on that workload)")
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprint(tw, "  metric\tunit")
	for _, wr := range res.Workloads {
		fmt.Fprintf(tw, "\t%s", wr.Name)
	}
	fmt.Fprintln(tw)
	for _, lm := range perLayer {
		fmt.Fprintf(tw, "  %s\t%s", lm.name, lm.unit)
		for _, wr := range res.Workloads {
			if v, ok := wr.PerLayer[lm.name]; ok && lm.measuredOn(wr.Name) {
				fmt.Fprintf(tw, "\t%.6g", v)
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	for _, wr := range res.Workloads {
		if wr.Name == "orb_lockstep" && wr.Traced != nil {
			stageBill(wr.PerLayer, float64(wr.Traced.Main.Raw.P50), float64(wr.Traced.Baseline.Raw.P50)).print(w)
		}
	}
}

// driverMain runs one workload the way BENCHMARK.json's command asks and
// prints the driver's result object as the last line of standard output.
func driverMain(name string, seed int64, seconds float64, trace bool, reps int) int {
	w, ok := findWorkload(name)
	if !ok || w.home != "" {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", name, strings.Join(names, ", "))
		return 2
	}
	exe, err := selfExe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if seconds <= 0 {
		seconds = reportWindowS * float64(reps)
	}
	window := math.Max(minWindowS, seconds/float64(reps))
	p := plan{Seed: seed, Reps: reps, WarmupS: driverWarmupS, WindowS: window,
		CellS: math.Min(1, window), ProbeS: math.Min(5, window), Probes: probeBudget{Each: 50 * time.Millisecond}}
	l := launcher{exe: exe, log: os.Stderr}

	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{Metrics: map[string]metricOut{}}
	// A metric that has no value (every repetition killed or wedged, or a
	// per-layer metric whose measurement failed) is left out, so the driver
	// sees it missing and not as the best value there is.
	put := func(name, unit string, v float64, ok bool) {
		if ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			out.Metrics[name] = metricOut{v, unit}
		}
	}

	if !trace {
		wr := summarizeReps(w, l.runUntraced([]workload{w}, p)[w.name])
		out.Correct, out.Attempted, out.Failed = wr.Correct, wr.Attempted, wr.Failed
		for _, em := range endToEnd {
			put(em.name, em.unit, float64(wr.EndToEnd[em.name].Value), true)
		}
	} else {
		// One untraced repetition for the tracing overhead's base, then the
		// traced repetition, the workload's cells and the probes.
		p.Reps = 1
		wr := summarizeReps(w, l.runUntraced([]workload{w}, p)[w.name])
		probes, err := l.probes(p.Probes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: probe errors:", err)
		}
		layer, tr := l.runTraced(w, p, wr, probes)
		out.Correct = wr.Correct && len(tr.Problems) == 0
		out.Attempted, out.Failed = wr.Attempted+tr.Attempted, wr.Failed+tr.Failed
		for _, lm := range perLayer {
			// Another workload's metric is 0 here: not measured, by design.
			v, ok := layer[lm.name]
			put(lm.name, lm.unit, v, ok || !lm.measuredOn(w.name))
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
