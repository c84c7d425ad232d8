package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/corba"
	"repro/internal/metrics"
	"repro/internal/orb"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// bench3Snapshot is the schema of BENCH_3.json: the write-batching and
// channel-striping sweep. The workload is heavy pipelining over TCP
// loopback through a paced wire — every write CALL costs a fixed delay
// (modelling the syscall + NIC-doorbell + small-packet overhead of an
// embedded-class link, in the same simulated-platform style as the Table 2
// experiments). The servant does no work, so the wire is the bottleneck
// being amortised: batching pays the per-call cost once for a whole batch,
// striping opens parallel paced lanes. Batching is always on, so the three
// configurations are one, two and four stripes over the same in-flight
// sweep. Durations are nanoseconds so the file diffs cleanly across runs.
type bench3Snapshot struct {
	Meta         benchMeta      `json:"meta"`
	Observations int            `json:"observations_per_level"`
	Warmup       int            `json:"warmup"`
	PayloadBytes int            `json:"payload_bytes"`
	PerWriteNs   int64          `json:"wire_cost_per_write_ns"`
	Configs      []bench3Config `json:"configs"`
	// SpeedupAt64 is the 4-stripe throughput at 64 in-flight over the
	// single stripe's: what parallel lanes add once every lane batches.
	SpeedupAt64 float64 `json:"speedup_at_64"`
}

type bench3Config struct {
	Name    string        `json:"name"`
	Stripes int           `json:"stripes"`
	Levels  []bench3Level `json:"levels"`
	// FramesPerFlush averages the batch size of the batched flushes over
	// the whole sweep (client and server combined).
	FramesPerFlush float64 `json:"frames_per_flush"`
	// WritesSaved counts wire writes batching eliminated: frames carried in
	// batches minus flushes issued.
	WritesSaved int64 `json:"writes_saved"`
}

type bench3Level struct {
	InFlight      int     `json:"in_flight"`
	ThroughputOps float64 `json:"throughput_ops_per_sec"`
	MedianNs      int64   `json:"median_ns"`
	P99Ns         int64   `json:"p99_ns"`
	JitterNs      int64   `json:"jitter_ns"`
}

// bench3Levels sweeps in-flight depth: 1 is the lone caller's direct write,
// 64 is where batches form and stripes matter.
var bench3Levels = []int{1, 4, 16, 64}

// bench3WireCost is the paced wire's fixed per-write-call delay. The OS
// timer may stretch each sleep well past this (millisecond granularity on
// some kernels); that is fine — every configuration pays the same stretched
// cost, and the snapshot's meaning lives in the ratios between
// configurations, not in the absolute delay.
const bench3WireCost = 50 * time.Microsecond

// pacedNetwork wraps a transport with a fixed cost per write CALL — paid
// once whether the call carries one frame or a whole batch, which is exactly
// the cost structure write batching exists to exploit.
type pacedNetwork struct {
	inner transport.Network
	cost  time.Duration
}

func (n pacedNetwork) Listen(addr string) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return pacedListener{l, n.cost}, nil
}

func (n pacedNetwork) Dial(addr string) (transport.Conn, error) {
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return pacedConn{c, n.cost}, nil
}

type pacedListener struct {
	transport.Listener
	cost time.Duration
}

func (l pacedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return pacedConn{c, l.cost}, nil
}

type pacedConn struct {
	transport.Conn
	cost time.Duration
}

func (c pacedConn) Write(b []byte) (int, error) {
	time.Sleep(c.cost)
	return c.Conn.Write(b)
}

func runBench3(warmup, obs int, outPath string) error {
	fmt.Printf("== BENCH_3 snapshot: write batching + striped channel pool ==\n")
	fmt.Printf("   (%d observations per level after %d warm-up iterations; TCP loopback)\n\n", obs, warmup)

	const payloadBytes = 256
	snap := bench3Snapshot{
		Meta:         currentBenchMeta(),
		Observations: obs, Warmup: warmup, PayloadBytes: payloadBytes,
		PerWriteNs: int64(bench3WireCost),
	}

	for _, stripes := range []int{1, 2, 4} {
		cfg, err := runBench3Config(fmt.Sprintf("%dstripe", stripes), stripes, warmup, obs, payloadBytes)
		if err != nil {
			return err
		}
		snap.Configs = append(snap.Configs, cfg)
	}

	base := snap.Configs[0]
	four := snap.Configs[len(snap.Configs)-1]
	if t := levelAt(base.Levels, 64); t > 0 {
		snap.SpeedupAt64 = levelAt(four.Levels, 64) / t
	}
	fmt.Printf("  speedup at 64 in-flight (4 stripes vs 1): %.2fx\n\n", snap.SpeedupAt64)

	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

func levelAt(levels []bench3Level, inFlight int) float64 {
	for _, lv := range levels {
		if lv.InFlight == inFlight {
			return lv.ThroughputOps
		}
	}
	return 0
}

// runBench3Config stands up a fresh server+client pair with the given stripe
// count, runs the in-flight sweep, and reads the batching counters' deltas
// for the whole sweep.
func runBench3Config(name string, stripes int, warmup, obs, payloadBytes int) (bench3Config, error) {
	net := pacedNetwork{inner: transport.TCP{}, cost: bench3WireCost}
	scfg := orb.ServerConfig{
		Network: net, Addr: "127.0.0.1:0", ScopePoolCount: 4, Concurrency: 16,
	}
	ccfg := orb.ClientConfig{
		Network: net, ScopePoolCount: 4, Channels: stripes,
	}
	srv, err := orb.NewServer(scfg)
	if err != nil {
		return bench3Config{}, err
	}
	defer srv.Close()
	srv.RegisterServant("echo", corba.EchoServant{})
	srv.ServeBackground()
	ccfg.Addr = srv.Addr()

	cl, err := orb.DialClient(ccfg)
	if err != nil {
		return bench3Config{}, err
	}
	defer cl.Close()

	// Warm every pool, stripe connection, and lazy structure once.
	if err := bench3Drive(cl, 8, warmup, payloadBytes, nil); err != nil {
		return bench3Config{}, err
	}

	flush0 := telemetry.Default.Counter("coalesce_flush_total").Value()
	frames0 := telemetry.Default.Counter("coalesce_frames_total").Value()

	cfg := bench3Config{Name: name, Stripes: stripes}
	for _, level := range bench3Levels {
		lv, err := bench3Measure(cl, level, obs, payloadBytes)
		if err != nil {
			return bench3Config{}, err
		}
		cfg.Levels = append(cfg.Levels, lv)
		fmt.Printf("  %-17s %2d in-flight: %10.0f ops/s  median %sµs  p99 %sµs\n",
			name, lv.InFlight, lv.ThroughputOps,
			metrics.Micros(time.Duration(lv.MedianNs)),
			metrics.Micros(time.Duration(lv.P99Ns)))
	}

	flushes := telemetry.Default.Counter("coalesce_flush_total").Value() - flush0
	frames := telemetry.Default.Counter("coalesce_frames_total").Value() - frames0
	if flushes > 0 {
		cfg.FramesPerFlush = float64(frames) / float64(flushes)
		cfg.WritesSaved = frames - flushes
	}
	fmt.Printf("  %-17s frames/flush %.2f, wire writes saved %d\n",
		name, cfg.FramesPerFlush, cfg.WritesSaved)
	fmt.Println()
	return cfg, nil
}

// bench3Measure drives total invocations split across `level` concurrent
// callers, each pinned to its own priority band so band-sticky selection
// spreads the load across stripes.
func bench3Measure(cl *orb.Client, level, total, payloadBytes int) (bench3Level, error) {
	samples := make([]time.Duration, 0, total)
	var mu sync.Mutex
	start := time.Now()
	if err := bench3Drive(cl, level, total, payloadBytes, func(d time.Duration) {
		mu.Lock()
		samples = append(samples, d)
		mu.Unlock()
	}); err != nil {
		return bench3Level{}, err
	}
	wall := time.Since(start)
	s := metrics.Summarize(samples)
	return bench3Level{
		InFlight:      level,
		ThroughputOps: float64(len(samples)) / wall.Seconds(),
		MedianNs:      int64(s.Median),
		P99Ns:         int64(s.P99),
		JitterNs:      int64(s.Jitter),
	}, nil
}

// bench3Drive runs total echo invocations split across `level` workers,
// worker w invoking at priority band w%31+1.
func bench3Drive(cl *orb.Client, level, total, payloadBytes int, observe func(time.Duration)) error {
	per := total / level
	if per == 0 {
		per = 1
	}
	var wg sync.WaitGroup
	errs := make([]error, level)
	for w := 0; w < level; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prio := sched.MinPriority + sched.Priority(w%31)
			payload := make([]byte, payloadBytes)
			for i := 0; i < per; i++ {
				t0 := time.Now()
				_, err := cl.Invoke("echo", "echo", payload, prio)
				if err != nil {
					errs[w] = fmt.Errorf("worker %d invoke %d: %w", w, i, err)
					return
				}
				if observe != nil {
					observe(time.Since(t0))
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
