package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/corba"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/orb"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// bench8Snapshot is the schema of BENCH_8.json: the collocated (direct
// transport) invocation snapshot. Two sections:
//
//   - collocation: 256B echo round trip through the collocated direct path
//     against the same workload over real loopback TCP at equal concurrency.
//     Speedup is the headline number this PR moves; the acceptance bar is
//     ≥5x. The collocated leg also reports counted payload copies per op
//     (must be 0.0 — the zero-copy contract) and the share of invocations
//     the collocated counter accounts for (must be 1.0 — nothing leaked to
//     the wire).
//   - fig11_256: the paper's Fig. 11 256-byte cell re-run on this tree, so
//     the wire fast path's headline number is pinned alongside the
//     collocated one (the collocation registry probe must not tax it).
//
// Durations are nanoseconds so the file diffs cleanly across runs.
type bench8Snapshot struct {
	Meta         benchMeta         `json:"meta"`
	Observations int               `json:"observations"`
	Warmup       int               `json:"warmup"`
	Collocation  bench8Collocation `json:"collocation"`
	Fig11_256    struct {
		CompadresMedianNs int64 `json:"compadres_median_ns"`
		CompadresP99Ns    int64 `json:"compadres_p99_ns"`
		RTZenMedianNs     int64 `json:"rtzen_median_ns"`
	} `json:"fig11_256"`
}

// bench8Collocation compares the two transports at equal concurrency.
type bench8Collocation struct {
	Invokers            int     `json:"invokers"`
	PayloadBytes        int     `json:"payload_bytes"`
	CollocatedMedianNs  int64   `json:"collocated_median_ns"`
	CollocatedP99Ns     int64   `json:"collocated_p99_ns"`
	CollocatedOps       float64 `json:"collocated_ops_per_sec"`
	CollocatedCopies    float64 `json:"collocated_payload_copies_per_op"`
	CollocatedPathShare float64 `json:"collocated_path_share"`
	TCPMedianNs         int64   `json:"tcp_median_ns"`
	TCPP99Ns            int64   `json:"tcp_p99_ns"`
	TCPOps              float64 `json:"tcp_ops_per_sec"`
	// Speedup is TCP median / collocated median — the factor the direct
	// path saves over the paper's loopback-network setup.
	Speedup float64 `json:"speedup_collocated_vs_tcp"`
}

// bench8Invokers is the equal concurrency of the collocation comparison.
const bench8Invokers = 16

func runBench8(warmup, obs int, outPath string) error {
	fmt.Printf("== BENCH_8 snapshot: collocated direct transport ==\n")
	fmt.Printf("   (%d observations after %d warm-up iterations)\n\n", obs, warmup)

	snap := bench8Snapshot{
		Meta:         currentBenchMeta(),
		Observations: obs, Warmup: warmup,
	}

	// --- collocated vs loopback TCP ---
	fmt.Printf("  Collocated vs loopback TCP (256B echo, %d invokers):\n", bench8Invokers)
	col, err := runBench8Collocation(warmup, obs)
	if err != nil {
		return err
	}
	snap.Collocation = col
	fmt.Printf("    collocated: median %sµs  p99 %sµs  %10.0f ops/s  (%.2f copies/op, path share %.2f)\n",
		metrics.Micros(time.Duration(col.CollocatedMedianNs)),
		metrics.Micros(time.Duration(col.CollocatedP99Ns)),
		col.CollocatedOps, col.CollocatedCopies, col.CollocatedPathShare)
	fmt.Printf("    loopback  : median %sµs  p99 %sµs  %10.0f ops/s\n",
		metrics.Micros(time.Duration(col.TCPMedianNs)),
		metrics.Micros(time.Duration(col.TCPP99Ns)), col.TCPOps)
	fmt.Printf("    speedup   : %.1fx (bar: >=5x)\n\n", col.Speedup)

	// --- Fig. 11 256B re-run ---
	fmt.Printf("  Fig. 11 256B re-run (wire fast path unchanged by the registry probe):\n")
	points, err := experiments.RunFig11([]int{256}, warmup, obs)
	if err != nil {
		return err
	}
	for _, p := range points {
		switch p.ORB {
		case "CompadresORB":
			snap.Fig11_256.CompadresMedianNs = int64(p.Summary.Median)
			snap.Fig11_256.CompadresP99Ns = int64(p.Summary.P99)
		case "RTZen":
			snap.Fig11_256.RTZenMedianNs = int64(p.Summary.Median)
		}
	}
	fmt.Printf("    compadres median %sµs  p99 %sµs\n\n",
		metrics.Micros(time.Duration(snap.Fig11_256.CompadresMedianNs)),
		metrics.Micros(time.Duration(snap.Fig11_256.CompadresP99Ns)))

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

// echoNoCopy answers with its input slice unchanged — the servant half of
// the zero-copy collocation contract (corba.EchoServant would charge one
// defensive copy per call and hide the path's true cost).
var echoNoCopy = corba.ServantFunc(func(op string, in []byte) ([]byte, error) {
	return in, nil
})

// runBench8Collocation measures the 256B echo round trip twice at equal
// concurrency: through the collocated direct path and over real loopback
// TCP (the paper's single-machine network setup).
func runBench8Collocation(warmup, obs int) (bench8Collocation, error) {
	out := bench8Collocation{Invokers: bench8Invokers, PayloadBytes: 256}

	// Collocated leg: in-process network, opted-in client.
	{
		net := transport.NewInproc()
		srv, err := orb.NewServer(orb.ServerConfig{Network: net, Addr: "bench8", ScopePoolCount: 4})
		if err != nil {
			return out, err
		}
		srv.RegisterServant("echo", echoNoCopy)
		srv.ServeBackground()
		cl, err := orb.DialClient(orb.ClientConfig{
			Network: net, Addr: "bench8", ScopePoolCount: 4, Collocate: true,
		})
		if err != nil {
			srv.Close()
			return out, err
		}
		copies0 := telemetry.Default.Counter("payload_copy_total").Value()
		direct0 := telemetry.Default.Counter("collocated_invoke_total").Value()
		sum, ops, err := bench8Drive(cl, warmup, obs)
		if err == nil {
			out.CollocatedMedianNs = int64(sum.Median)
			out.CollocatedP99Ns = int64(sum.P99)
			out.CollocatedOps = ops
			n := float64(obs)
			out.CollocatedCopies = float64(telemetry.Default.Counter("payload_copy_total").Value()-copies0) / n
			out.CollocatedPathShare = float64(telemetry.Default.Counter("collocated_invoke_total").Value()-direct0) / float64(bench8Ops(warmup)+bench8Ops(obs))
		}
		cl.Close()
		srv.Close()
		if err != nil {
			return out, err
		}
	}

	// Loopback-TCP leg: the same workload through the kernel.
	{
		net := transport.TCP{}
		srv, err := orb.NewServer(orb.ServerConfig{Network: net, Addr: "127.0.0.1:0", ScopePoolCount: 4})
		if err != nil {
			return out, err
		}
		srv.RegisterServant("echo", echoNoCopy)
		srv.ServeBackground()
		cl, err := orb.DialClient(orb.ClientConfig{
			Network: net, Addr: srv.Addr(), ScopePoolCount: 4,
		})
		if err != nil {
			srv.Close()
			return out, err
		}
		sum, ops, err := bench8Drive(cl, warmup, obs)
		cl.Close()
		srv.Close()
		if err != nil {
			return out, err
		}
		out.TCPMedianNs = int64(sum.Median)
		out.TCPP99Ns = int64(sum.P99)
		out.TCPOps = ops
	}

	if out.CollocatedMedianNs > 0 {
		out.Speedup = float64(out.TCPMedianNs) / float64(out.CollocatedMedianNs)
	}
	return out, nil
}

// bench8Ops is the exact invocation count a bench8Drive phase performs for
// a requested total (the per-worker split rounds down, min one each).
func bench8Ops(total int) int {
	per := total / bench8Invokers
	if per == 0 {
		per = 1
	}
	return per * bench8Invokers
}

// bench8Drive hammers the client with bench8Invokers pipelined workers and
// returns the per-invoke latency summary plus wall-clock throughput of the
// measured window.
func bench8Drive(cl *orb.Client, warmup, obs int) (metrics.Summary, float64, error) {
	drive := func(total int, observe func(time.Duration)) error {
		per := total / bench8Invokers
		if per == 0 {
			per = 1
		}
		var wg sync.WaitGroup
		errs := make([]error, bench8Invokers)
		for w := 0; w < bench8Invokers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				payload := make([]byte, 256)
				for i := 0; i < per; i++ {
					t0 := time.Now()
					if _, err := cl.Invoke("echo", "echo", payload, sched.NormPriority); err != nil {
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

	if err := drive(warmup, nil); err != nil {
		return metrics.Summary{}, 0, err
	}
	samples := make([]time.Duration, 0, obs)
	var mu sync.Mutex
	start := time.Now()
	if err := drive(obs, func(d time.Duration) {
		mu.Lock()
		samples = append(samples, d)
		mu.Unlock()
	}); err != nil {
		return metrics.Summary{}, 0, err
	}
	wall := time.Since(start)
	return metrics.Summarize(samples), float64(len(samples)) / wall.Seconds(), nil
}
