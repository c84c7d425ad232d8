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
	"repro/internal/transport"
)

// bench2Snapshot is the schema of BENCH_2.json: the pipelined-invocation
// concurrency sweep the multiplexed connection core is judged by. One
// client, one GIOP connection, N invocations in flight against a servant
// with a fixed service time; the lockstep baseline serialises the same
// traffic one exchange at a time (the behaviour of the pre-mux client,
// reproduced with a caller-side mutex). Under lockstep one connection can
// never occupy more than one server worker, however wide the server's
// processing pool is; demultiplexing replies by id lets a single connection
// keep the whole pool busy. Durations are nanoseconds so the file diffs
// cleanly across runs.
type bench2Snapshot struct {
	Meta           benchMeta     `json:"meta"`
	Observations   int           `json:"observations_per_level"`
	Warmup         int           `json:"warmup"`
	PayloadBytes   int           `json:"payload_bytes"`
	ServiceDelayNs int64         `json:"service_delay_ns"`
	Levels         []bench2Level `json:"levels"`
	Lockstep       bench2Level   `json:"lockstep_baseline_16"`
	// SpeedupAt16 is pipelined throughput at 16 in-flight over the lockstep
	// baseline driven by the same 16 callers; the acceptance floor is 3.
	SpeedupAt16 float64 `json:"speedup_at_16"`
}

type bench2Level struct {
	InFlight      int     `json:"in_flight"`
	ThroughputOps float64 `json:"throughput_ops_per_sec"`
	MedianNs      int64   `json:"median_ns"`
	P99Ns         int64   `json:"p99_ns"`
	JitterNs      int64   `json:"jitter_ns"`
}

// bench2Levels is the in-flight sweep: 1 is the no-concurrency floor (and
// the single-invoke regression guard), 64 exercises the pending table well
// past the server-side processing width.
var bench2Levels = []int{1, 4, 16, 64}

func runBench2(warmup, obs int, outPath string) error {
	fmt.Printf("== BENCH_2 snapshot: pipelined invocations over one multiplexed connection ==\n")
	fmt.Printf("   (%d observations per level after %d warm-up iterations; in-process loopback)\n\n", obs, warmup)

	const payloadBytes = 256
	// Each invocation costs a fixed service time at the servant — the
	// remote-call shape pipelining exists for. 200µs is small enough to
	// keep the sweep fast and large enough to dominate dispatch overhead.
	const serviceDelay = 200 * time.Microsecond
	net := transport.NewInproc()
	srv, err := orb.NewServer(orb.ServerConfig{
		Network: net, Addr: "bench2", ScopePoolCount: 4, Concurrency: 16,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.RegisterServant("echo", corba.ServantFunc(func(op string, in []byte) ([]byte, error) {
		time.Sleep(serviceDelay)
		return in, nil
	}))
	srv.ServeBackground()

	cl, err := orb.DialClient(orb.ClientConfig{
		Network: net, Addr: "bench2", ScopePoolCount: 4,
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	snap := bench2Snapshot{
		Meta:         currentBenchMeta(),
		Observations: obs, Warmup: warmup,
		PayloadBytes: payloadBytes, ServiceDelayNs: int64(serviceDelay),
	}

	// Warm every pool and lazy structure on the path once, up front.
	if err := bench2Drive(cl, 1, warmup, payloadBytes, nil); err != nil {
		return err
	}

	for _, level := range bench2Levels {
		lv, err := bench2Measure(cl, level, obs, payloadBytes, nil)
		if err != nil {
			return err
		}
		snap.Levels = append(snap.Levels, lv)
		fmt.Printf("  pipelined %2d in-flight: %10.0f ops/s  median %sµs  p99 %sµs\n",
			lv.InFlight, lv.ThroughputOps, metrics.Micros(time.Duration(lv.MedianNs)),
			metrics.Micros(time.Duration(lv.P99Ns)))
	}

	// Lockstep baseline: the same 16 callers, but a caller-side mutex
	// serialises whole exchanges — one request on the wire at a time, the
	// pre-mux client's discipline.
	var lockstep sync.Mutex
	lk, err := bench2Measure(cl, 16, obs, payloadBytes, &lockstep)
	if err != nil {
		return err
	}
	snap.Lockstep = lk
	fmt.Printf("  lockstep  16 callers:   %10.0f ops/s  median %sµs  p99 %sµs\n",
		lk.ThroughputOps, metrics.Micros(time.Duration(lk.MedianNs)),
		metrics.Micros(time.Duration(lk.P99Ns)))

	for _, lv := range snap.Levels {
		if lv.InFlight == 16 && lk.ThroughputOps > 0 {
			snap.SpeedupAt16 = lv.ThroughputOps / lk.ThroughputOps
		}
	}
	fmt.Printf("  speedup at 16 in-flight vs lockstep: %.2fx\n\n", snap.SpeedupAt16)

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

// bench2Measure drives total invocations split across `level` concurrent
// callers and summarises per-invoke latency plus aggregate throughput. A
// non-nil serial mutex degrades the run to lockstep.
func bench2Measure(cl *orb.Client, level, total, payloadBytes int, serial *sync.Mutex) (bench2Level, error) {
	samples := make([]time.Duration, 0, total)
	var mu sync.Mutex
	start := time.Now()
	if err := bench2Drive(cl, level, total, payloadBytes, func(d time.Duration) {
		mu.Lock()
		samples = append(samples, d)
		mu.Unlock()
	}, serialOpt(serial)...); err != nil {
		return bench2Level{}, err
	}
	wall := time.Since(start)
	s := metrics.Summarize(samples)
	return bench2Level{
		InFlight:      level,
		ThroughputOps: float64(len(samples)) / wall.Seconds(),
		MedianNs:      int64(s.Median),
		P99Ns:         int64(s.P99),
		JitterNs:      int64(s.Jitter),
	}, nil
}

func serialOpt(serial *sync.Mutex) []*sync.Mutex {
	if serial == nil {
		return nil
	}
	return []*sync.Mutex{serial}
}

// bench2Drive runs total echo invocations split across `level` workers on
// one shared client; observe (if non-nil) receives each invocation's
// latency. An optional trailing mutex serialises whole exchanges.
func bench2Drive(cl *orb.Client, level, total, payloadBytes int, observe func(time.Duration), serial ...*sync.Mutex) error {
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
			payload := make([]byte, payloadBytes)
			for i := 0; i < per; i++ {
				t0 := time.Now()
				var err error
				if len(serial) > 0 && serial[0] != nil {
					serial[0].Lock()
					_, err = cl.Invoke("echo", "echo", payload, sched.NormPriority)
					serial[0].Unlock()
				} else {
					_, err = cl.Invoke("echo", "echo", payload, sched.NormPriority)
				}
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
