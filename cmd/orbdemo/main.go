// Command orbdemo runs the paper's real-world example over real TCP: the
// Compadres ORB (or the RTZen baseline) serving an echo object, and a
// client measuring round trips against it.
//
//	orbdemo -mode server -addr 127.0.0.1:9999
//	orbdemo -mode client -addr 127.0.0.1:9999 -size 256 -n 1000
//	orbdemo -mode both                              # co-located, loopback TCP
//
// Pass -orb rtzen to run the hand-coded baseline instead of the Compadres
// components.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"time"

	"repro/internal/corba"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/orb"
	"repro/internal/rtzen"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func main() {
	var (
		mode        = flag.String("mode", "both", "server | client | both")
		addr        = flag.String("addr", "127.0.0.1:0", "TCP address")
		orbKind     = flag.String("orb", "compadres", "compadres | rtzen")
		size        = flag.Int("size", 256, "echo payload size in bytes")
		n           = flag.Int("n", 1000, "measured round trips")
		warmup      = flag.Int("warmup", 100, "warm-up round trips")
		metricsAddr = flag.String("metrics", "", "serve telemetry on this HTTP address (/metrics, /snapshot.json, /trace?id=hex)")
		telem       = flag.Bool("telemetry", true, "record counters, spans, and flight-recorder events")
		chaos       = flag.Bool("chaos", false, "inject seeded transport faults on the client and drive the resilient invoke path (compadres only)")
		seed        = flag.Uint64("seed", 1, "chaos schedule and retry-jitter seed")
		concurrency = flag.Int("concurrency", 1, "pipeline this many concurrent invokes over the one connection, sweeping doubling levels up to N (compadres only)")
	)
	flag.Parse()
	telemetry.Enable(*telem)
	if err := run(*mode, *addr, *orbKind, *size, *n, *warmup, *metricsAddr, *chaos, *seed, *concurrency); err != nil {
		fmt.Fprintln(os.Stderr, "orbdemo:", err)
		os.Exit(1)
	}
}

// serveMetrics binds the telemetry endpoint and serves it in the background
// for the process's lifetime.
func serveMetrics(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("metrics listener: %w", err)
	}
	fmt.Printf("telemetry at http://%s/metrics\n", ln.Addr())
	go func() { _ = http.Serve(ln, telemetry.Handler()) }()
	return nil
}

type echoServer interface {
	Addr() string
	Close()
}

type echoClient interface {
	Invoke(key, op string, payload []byte, prio sched.Priority) ([]byte, error)
	Close()
}

func startServer(orbKind, addr string) (echoServer, error) {
	switch orbKind {
	case "compadres":
		srv, err := orb.NewServer(orb.ServerConfig{Network: transport.TCP{}, Addr: addr})
		if err != nil {
			return nil, err
		}
		srv.RegisterServant("echo", corba.EchoServant{})
		srv.ServeBackground()
		return srv, nil
	case "rtzen":
		srv, err := rtzen.NewServer(rtzen.ServerConfig{Network: transport.TCP{}, Addr: addr})
		if err != nil {
			return nil, err
		}
		srv.RegisterServant("echo", corba.EchoServant{})
		srv.ServeBackground()
		return srv, nil
	default:
		return nil, fmt.Errorf("unknown -orb %q", orbKind)
	}
}

func dialClient(orbKind, addr string) (echoClient, error) {
	switch orbKind {
	case "compadres":
		return orb.DialClient(orb.ClientConfig{Network: transport.TCP{}, Addr: addr})
	case "rtzen":
		return rtzen.DialClient(rtzen.ClientConfig{Network: transport.TCP{}, Addr: addr})
	default:
		return nil, fmt.Errorf("unknown -orb %q", orbKind)
	}
}

func run(mode, addr, orbKind string, size, n, warmup int, metricsAddr string, chaos bool, seed uint64, concurrency int) error {
	switch {
	case n < 1:
		return fmt.Errorf("-n %d: must be at least 1", n)
	case warmup < 0:
		return fmt.Errorf("-warmup %d: must not be negative", warmup)
	case size < 0:
		return fmt.Errorf("-size %d: must not be negative", size)
	case concurrency < 1:
		return fmt.Errorf("-concurrency %d: must be at least 1", concurrency)
	}
	// The demo's contract is full observability: when telemetry is on at
	// all, record the per-hop events (spans, send/dispatch) too.
	telemetry.Verbose(telemetry.Enabled())
	if metricsAddr != "" {
		if err := serveMetrics(metricsAddr); err != nil {
			return err
		}
	}
	switch mode {
	case "server":
		srv, err := startServer(orbKind, addr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("%s ORB serving echo at %s (ctrl-c to stop)\n", orbKind, srv.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		return nil

	case "client":
		if concurrency > 1 {
			return runConcurrent(orbKind, addr, size, n, warmup, chaos, concurrency)
		}
		return runClient(orbKind, addr, size, n, warmup, chaos, seed)

	case "both":
		srv, err := startServer(orbKind, addr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("%s ORB serving echo at %s\n", orbKind, srv.Addr())
		if concurrency > 1 {
			return runConcurrent(orbKind, srv.Addr(), size, n, warmup, chaos, concurrency)
		}
		return runClient(orbKind, srv.Addr(), size, n, warmup, chaos, seed)

	default:
		return fmt.Errorf("unknown -mode %q", mode)
	}
}

// runConcurrent sweeps pipelined invocation levels 1, 2, 4, … up to the
// requested concurrency over ONE multiplexed client connection, printing
// median, P99, and throughput per level — demultiplexing replies by id lets a
// single GIOP connection carry all of them at once.
func runConcurrent(orbKind, addr string, size, n, warmup int, chaos bool, concurrency int) error {
	if orbKind != "compadres" {
		return fmt.Errorf("-concurrency requires -orb compadres (the rtzen baseline serialises exchanges)")
	}
	if chaos {
		return fmt.Errorf("-concurrency and -chaos are separate demos; pick one")
	}
	cl, err := orb.DialClient(orb.ClientConfig{Network: transport.TCP{}, Addr: addr})
	if err != nil {
		return err
	}
	defer cl.Close()

	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}

	// Warm every pool and lazy structure once before measuring.
	for i := 0; i < warmup; i++ {
		if _, err := cl.Invoke("echo", "echo", payload, sched.NormPriority); err != nil {
			return err
		}
	}

	fmt.Printf("%s ORB, %d-byte echo over TCP %s, one multiplexed connection:\n", orbKind, size, addr)
	fmt.Printf("  %-10s %12s %12s %14s\n", "in-flight", "median", "p99", "throughput")
	for level := 1; ; level *= 2 {
		if level > concurrency {
			break
		}
		samples := make([]time.Duration, 0, n)
		var mu sync.Mutex
		var wg sync.WaitGroup
		errs := make([]error, level)
		per := n / level
		if per == 0 {
			per = 1
		}
		start := time.Now()
		for w := 0; w < level; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					t0 := time.Now()
					if _, err := cl.Invoke("echo", "echo", payload, sched.NormPriority); err != nil {
						errs[w] = err
						return
					}
					d := time.Since(t0)
					mu.Lock()
					samples = append(samples, d)
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		wall := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		s := metrics.Summarize(samples)
		fmt.Printf("  %-10d %10sµs %10sµs %11.0f/s\n", level,
			metrics.Micros(s.Median), metrics.Micros(s.P99),
			float64(len(samples))/wall.Seconds())
	}
	return nil
}

func runClient(orbKind, addr string, size, n, warmup int, chaos bool, seed uint64) error {
	var (
		cl       echoClient
		chaosNet *fault.Network
		invoke   func(key, op string, payload []byte, prio sched.Priority) ([]byte, error)
		err      error
	)
	if chaos {
		if orbKind != "compadres" {
			return fmt.Errorf("-chaos requires -orb compadres")
		}
		// Seeded fault schedule: the same -seed replays the same dial
		// refusals, connection deaths, delays, and truncated writes.
		chaosNet = fault.New(transport.TCP{}, fault.Config{
			Seed:             seed,
			DialFailProb:     0.05,
			DropAfterBytes:   64 << 10,
			DropProb:         0.002,
			PartialWriteProb: 0.002,
			LatencyMin:       10 * time.Microsecond,
			LatencyMax:       500 * time.Microsecond,
		})
		ccl, derr := orb.DialClient(orb.ClientConfig{
			Network: chaosNet, Addr: addr,
			Resilience: &orb.ResilienceConfig{
				Seed:                 seed,
				InvokeTimeout:        2 * time.Second,
				RetryBudgetTokens:    n + warmup,
				RetryBudgetEarnEvery: 1,
			},
		})
		if derr != nil {
			return derr
		}
		cl, invoke = ccl, ccl.InvokeIdempotent
	} else {
		cl, err = dialClient(orbKind, addr)
		if err != nil {
			return err
		}
		invoke = cl.Invoke
	}
	defer cl.Close()

	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	op := func() error {
		got, err := invoke("echo", "echo", payload, sched.NormPriority)
		if err != nil {
			return err
		}
		if len(got) != len(payload) {
			return fmt.Errorf("echo returned %d bytes, want %d", len(got), len(payload))
		}
		return nil
	}
	start := time.Now()
	summary, err := metrics.RunSteadyState(warmup, n, op)
	if err != nil {
		return err
	}
	fmt.Printf("%s ORB, %d-byte echo over TCP %s: %s (total %v)\n",
		orbKind, size, addr, summary, time.Since(start).Round(time.Millisecond))
	if chaosNet != nil {
		st := chaosNet.Stats()
		fmt.Printf("chaos (seed %d): %d dials refused, %d conns dropped, %d delays, %d partial writes\n",
			seed, st.DialsRefused, st.ConnsDropped, st.DelaysAdded, st.PartialWrites)
	}
	printTelemetryDigest(orbKind)
	return nil
}

// printTelemetryDigest shows the last round trip's stitched trace and the
// headline counters — the observable proof that one invoke crossed client,
// wire, and server under a single trace id.
func printTelemetryDigest(orbKind string) {
	if !telemetry.Enabled() {
		return
	}
	spanLabel := "orb.client.invoke"
	if orbKind == "rtzen" {
		spanLabel = "rtzen.client.invoke"
	}
	var trace uint64
	for _, ev := range telemetry.Default.Ring().Snapshot() {
		if ev.Kind == telemetry.EvSpanStart && ev.Label == spanLabel {
			trace = ev.Trace // oldest→newest: keep the last
		}
	}
	fmt.Println()
	if trace != 0 {
		fmt.Println("last round trip, stitched from the flight recorder:")
		_ = telemetry.Default.DumpTrace(os.Stdout, trace)
	}
	fmt.Println("\ncounters (full set at /metrics when -metrics is set):")
	snap := telemetry.Default.Snapshot(telemetry.SnapshotOptions{})
	for _, c := range snap.Counters {
		if c.Value != 0 {
			fmt.Printf("  %-28s %d\n", c.Name, c.Value)
		}
	}
}
