// Command benchharness regenerates every table and figure of the paper's
// evaluation section and prints them in the paper's layout:
//
//	benchharness -experiment table2      # Table 2: median + jitter per platform
//	benchharness -experiment fig9        # Fig. 9: latency distributions per platform
//	benchharness -experiment fig11       # Fig. 11: Compadres ORB vs RTZen by size
//	benchharness -experiment ablations   # cross-scope / shadow-port / scope-pool
//	benchharness -experiment bench5      # BENCH_5.json snapshot (cluster failover under load)
//	benchharness -experiment bench6      # BENCH_6.json snapshot (tiered overload control)
//	benchharness -experiment bench7      # BENCH_7.json snapshot (live reconfiguration)
//	benchharness -experiment chaos       # resilient invocation under seeded fault injection
//	benchharness -experiment all
//
// Use -observations and -warmup to trade accuracy for time; the defaults
// are the paper's 10,000 steady-state observations.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/corba"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/orb"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "table2 | fig9 | fig11 | ablations | bench5 | bench6 | bench7 | chaos | all")
		obs        = flag.Int("observations", metrics.DefaultObservations, "steady-state observations per configuration")
		warmup     = flag.Int("warmup", metrics.DefaultWarmup, "warm-up iterations discarded before measuring")
		out        = flag.String("out", "", "output path for the bench5/bench6/bench7 snapshot (default BENCH_<n>.json)")
		seed       = flag.Uint64("seed", 1, "chaos fault-schedule seed")
		telem      = flag.Bool("telemetry", true, "record runtime telemetry during experiments")
		telemOut   = flag.String("telemetry-out", "", "write a telemetry JSON snapshot (with flight-recorder events) to this file after the run")
	)
	flag.Parse()
	telemetry.Enable(*telem)
	if err := run(*experiment, *warmup, *obs, *out, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchharness:", err)
		os.Exit(1)
	}
	if *telemOut != "" {
		if err := writeTelemetrySnapshot(*telemOut); err != nil {
			fmt.Fprintln(os.Stderr, "benchharness:", err)
			os.Exit(1)
		}
	}
}

// writeTelemetrySnapshot dumps the full registry — counters, gauges,
// histograms, faults, and the flight recorder — as JSON.
func writeTelemetrySnapshot(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.Default.WriteJSON(f, telemetry.SnapshotOptions{Events: true}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(experiment string, warmup, obs int, out string, seed uint64) error {
	if obs < 1 {
		return fmt.Errorf("-observations %d: must be at least 1", obs)
	}
	if warmup < 0 {
		return fmt.Errorf("-warmup %d: must not be negative", warmup)
	}
	switch experiment {
	case "table2":
		return runTable2(warmup, obs, false)
	case "fig9":
		return runTable2(warmup, obs, true)
	case "fig11":
		return runFig11(warmup, obs)
	case "ablations":
		return runAblations(warmup, obs)
	case "bench5":
		if out == "" {
			out = "BENCH_5.json"
		}
		return runBench5(warmup, obs, out)
	case "bench6":
		if out == "" {
			out = "BENCH_6.json"
		}
		return runBench6(warmup, obs, out)
	case "bench7":
		if out == "" {
			out = "BENCH_7.json"
		}
		return runBench7(warmup, obs, out)
	case "chaos":
		return runChaos(warmup, obs, seed)
	case "all":
		if err := runTable2(warmup, obs, true); err != nil {
			return err
		}
		if err := runFig11(warmup, obs); err != nil {
			return err
		}
		return runAblations(warmup, obs)
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
}

func runTable2(warmup, obs int, histograms bool) error {
	fmt.Printf("== Table 2: round-trip median and jitter, co-located Compadres client-server ==\n")
	fmt.Printf("   (%d observations after %d warm-up iterations; simulated platforms)\n\n", obs, warmup)
	rows, err := experiments.RunTable2(warmup, obs)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Platform\tMedian (µs)\tJitter (µs)\tMin (µs)\tMax (µs)\tP99 (µs)")
	for _, r := range rows {
		s := r.Summary
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n", r.Platform,
			metrics.Micros(s.Median), metrics.Micros(s.Jitter),
			metrics.Micros(s.Min), metrics.Micros(s.Max), metrics.Micros(s.P99))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println()

	if histograms {
		fmt.Printf("== Fig. 9: round-trip latency distributions ==\n\n")
		for _, r := range rows {
			fmt.Printf("--- %s (min %sµs, median %sµs, max %sµs) ---\n",
				r.Platform, metrics.Micros(r.Summary.Min),
				metrics.Micros(r.Summary.Median), metrics.Micros(r.Summary.Max))
			fmt.Print(metrics.Histogram(r.Samples, 16, 48))
			fmt.Println()
		}
	}
	return nil
}

func runFig11(warmup, obs int) error {
	fmt.Printf("== Fig. 11: Compadres ORB vs RTZen round-trip latency by message size ==\n")
	fmt.Printf("   (%d observations after %d warm-up iterations; TimesysRI platform model, in-process loopback)\n\n", obs, warmup)
	points, err := experiments.RunFig11(nil, warmup, obs)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ORB\tSize (B)\tMedian (µs)\tP99 (µs)\tJitter (µs)\tMin (µs)\tMax (µs)")
	for _, p := range points {
		s := p.Summary
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s\t%s\t%s\n", p.ORB, p.Size,
			metrics.Micros(s.Median), metrics.Micros(s.P99), metrics.Micros(s.Jitter),
			metrics.Micros(s.Min), metrics.Micros(s.Max))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// runChaos measures the resilient invocation path twice over the in-process
// transport: once clean (resilience compiled in, no faults) and once under a
// seeded fault schedule, so the cost of supervision and the behaviour under
// injected failures sit side by side.
func runChaos(warmup, obs int, seed uint64) error {
	fmt.Printf("== Chaos: resilient ORB invocation under seeded fault injection (seed %d) ==\n", seed)
	fmt.Printf("   (%d observations after %d warm-up iterations; in-process loopback; idempotent invokes)\n\n", obs, warmup)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Variant\tMedian (µs)\tJitter (µs)\tP99 (µs)\tMax (µs)\tRetries\tReconnects\tConns dropped")
	for _, chaos := range []bool{false, true} {
		if err := runChaosVariant(w, warmup, obs, seed, chaos); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func runChaosVariant(w *tabwriter.Writer, warmup, obs int, seed uint64, chaos bool) error {
	base := transport.NewInproc()
	srv, err := orb.NewServer(orb.ServerConfig{Network: base, Addr: "chaos"})
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.RegisterServant("echo", corba.EchoServant{})
	srv.ServeBackground()

	var clientNet transport.Network = base
	var fn *fault.Network
	name := "clean (resilience on)"
	if chaos {
		name = "chaotic (seeded faults)"
		fn = fault.New(base, fault.Config{
			Seed:             seed,
			DialFailProb:     0.05,
			DropAfterBytes:   64 << 10,
			DropProb:         0.001,
			PartialWriteProb: 0.001,
		})
		clientNet = fn
	}
	cl, err := orb.DialClient(orb.ClientConfig{
		Network: clientNet, Addr: "chaos",
		Resilience: &orb.ResilienceConfig{
			Seed:                 seed,
			MaxRetries:           6,
			RetryBudgetTokens:    warmup + obs,
			RetryBudgetEarnEvery: 1,
			InvokeTimeout:        2 * time.Second,
			BreakerCooldown:      5 * time.Millisecond,
		},
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	retries0 := telemetry.Default.Counter("retry_total").Value()
	reconns0 := telemetry.Default.Counter("reconnect_total").Value()
	payload := make([]byte, 256)
	summary, err := metrics.RunSteadyState(warmup, obs, func() error {
		_, err := cl.InvokeIdempotent("echo", "echo", payload, sched.NormPriority)
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	var dropped int64
	if fn != nil {
		dropped = fn.Stats().ConnsDropped
	}
	fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%d\t%d\t%d\n", name,
		metrics.Micros(summary.Median), metrics.Micros(summary.Jitter),
		metrics.Micros(summary.P99), metrics.Micros(summary.Max),
		telemetry.Default.Counter("retry_total").Value()-retries0,
		telemetry.Default.Counter("reconnect_total").Value()-reconns0,
		dropped)
	return nil
}

func runAblations(warmup, obs int) error {
	type ablation struct {
		title string
		run   func(int, int) ([]experiments.AblationRow, error)
	}
	ablations := []ablation{
		{"Ablation A: cross-scope message passing mechanisms (§2.2)", experiments.RunAblationCrossScope},
		{"Ablation B: shadow port vs parent relay (Fig. 5)", experiments.RunAblationShadowPort},
		{"Ablation C: scope pool vs fresh scopes for transient components", experiments.RunAblationScopePool},
		{"Ablation D: synchronous vs thread-pool port dispatch", experiments.RunAblationDispatch},
	}
	for _, a := range ablations {
		fmt.Printf("== %s ==\n\n", a.title)
		rows, err := a.run(warmup, obs)
		if err != nil {
			return err
		}
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "Variant\tMedian (µs)\tJitter (µs)\tMin (µs)\tMax (µs)")
		for _, r := range rows {
			s := r.Summary
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", r.Variant,
				metrics.Micros(s.Median), metrics.Micros(s.Jitter),
				metrics.Micros(s.Min), metrics.Micros(s.Max))
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}
