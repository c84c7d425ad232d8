package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/corba"
	"repro/internal/experiments"
	"repro/internal/giop"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/orb"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// bench4Snapshot is the schema of BENCH_4.json: the zero-copy request path
// snapshot. Two sections:
//
//   - fig11: the paper's Fig. 11 grid re-run on the refcounted frame path,
//     with the Compadres/RTZen median ratio per message size. This is the
//     headline overhead number the PR moves.
//   - copy_path: counted payload copies and frame detaches per operation
//     for the copying Invoke against the lending InvokeView. InvokeView's
//     steady-state figure must be 0.0 — the same invariant the
//     TestInvokeViewZeroPayloadCopies guard pins in CI.
//
// Durations are nanoseconds so the file diffs cleanly across runs.
type bench4Snapshot struct {
	Meta         benchMeta        `json:"meta"`
	Observations int              `json:"observations"`
	Warmup       int              `json:"warmup"`
	GOMAXPROCS   int              `json:"gomaxprocs"`
	Fig11        []bench4Fig11Row `json:"fig11"`
	// MedianRatio256 is the Compadres/RTZen median ratio at the 256-byte
	// point — the single number tracked across PRs.
	MedianRatio256 float64          `json:"median_ratio_256"`
	CopyPath       []bench4CopyPath `json:"copy_path"`
}

type bench4Fig11Row struct {
	Size              int     `json:"size_bytes"`
	CompadresMedianNs int64   `json:"compadres_median_ns"`
	CompadresP99Ns    int64   `json:"compadres_p99_ns"`
	RTZenMedianNs     int64   `json:"rtzen_median_ns"`
	RTZenP99Ns        int64   `json:"rtzen_p99_ns"`
	MedianRatio       float64 `json:"median_ratio"`
}

type bench4CopyPath struct {
	API         string  `json:"api"`
	Ops         int     `json:"ops"`
	CopiesPerOp float64 `json:"payload_copies_per_op"`
	BytesPerOp  float64 `json:"payload_bytes_copied_per_op"`
	DetachPerOp float64 `json:"frame_detaches_per_op"`
}

func runBench4(warmup, obs int, outPath string) error {
	fmt.Printf("== BENCH_4 snapshot: zero-copy request path ==\n")
	fmt.Printf("   (%d observations after %d warm-up iterations)\n\n", obs, warmup)

	snap := bench4Snapshot{
		Meta:         currentBenchMeta(),
		Observations: obs, Warmup: warmup,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	// --- Fig. 11 on the frame path ---
	fmt.Printf("  Fig. 11 (in-process loopback, TimesysRI model):\n")
	points, err := experiments.RunFig11(nil, warmup, obs)
	if err != nil {
		return err
	}
	bySize := map[int]*bench4Fig11Row{}
	for _, p := range points {
		row := bySize[p.Size]
		if row == nil {
			row = &bench4Fig11Row{Size: p.Size}
			bySize[p.Size] = row
		}
		switch p.ORB {
		case "CompadresORB":
			row.CompadresMedianNs = int64(p.Summary.Median)
			row.CompadresP99Ns = int64(p.Summary.P99)
		case "RTZen":
			row.RTZenMedianNs = int64(p.Summary.Median)
			row.RTZenP99Ns = int64(p.Summary.P99)
		}
	}
	for _, size := range experiments.Fig11Sizes {
		row := bySize[size]
		if row == nil {
			continue
		}
		if row.RTZenMedianNs > 0 {
			row.MedianRatio = float64(row.CompadresMedianNs) / float64(row.RTZenMedianNs)
		}
		if size == 256 {
			snap.MedianRatio256 = row.MedianRatio
		}
		snap.Fig11 = append(snap.Fig11, *row)
		fmt.Printf("    %4dB: compadres %sµs vs rtzen %sµs (%.2fx)\n", size,
			metrics.Micros(time.Duration(row.CompadresMedianNs)),
			metrics.Micros(time.Duration(row.RTZenMedianNs)), row.MedianRatio)
	}
	fmt.Println()

	// --- copy path ---
	fmt.Printf("  Copy accounting per reply (512B payload):\n")
	for _, view := range []bool{false, true} {
		cp, err := runBench4CopyPath(view, obs)
		if err != nil {
			return err
		}
		snap.CopyPath = append(snap.CopyPath, cp)
		fmt.Printf("    %-10s %.2f copies/op, %.0f bytes/op, %.2f detaches/op\n",
			cp.API, cp.CopiesPerOp, cp.BytesPerOp, cp.DetachPerOp)
	}
	fmt.Println()

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

// runBench4CopyPath measures counted payload copies, copied bytes, and
// frame detaches per operation for one reply-delivery API at steady state.
func runBench4CopyPath(view bool, ops int) (bench4CopyPath, error) {
	net := transport.NewInproc()
	srv, err := orb.NewServer(orb.ServerConfig{Network: net, Addr: "copy", ScopePoolCount: 2})
	if err != nil {
		return bench4CopyPath{}, err
	}
	defer srv.Close()
	srv.RegisterServant("echo", corba.EchoServant{})
	srv.ServeBackground()
	cl, err := orb.DialClient(orb.ClientConfig{Network: net, Addr: "copy", ScopePoolCount: 2})
	if err != nil {
		return bench4CopyPath{}, err
	}
	defer cl.Close()

	payload := make([]byte, 512)
	invoke := func() error {
		_, err := cl.Invoke("echo", "echo", payload, sched.NormPriority)
		return err
	}
	if view {
		invoke = func() error {
			return cl.InvokeView("echo", "echo", payload, sched.NormPriority,
				func(reply memory.Loan) error { _, err := reply.Bytes(); return err })
		}
	}
	// Warm pools and frame classes so the measured window is steady state.
	for i := 0; i < 64; i++ {
		if err := invoke(); err != nil {
			return bench4CopyPath{}, err
		}
	}

	copies0 := telemetry.Default.Counter("payload_copy_total").Value()
	bytes0 := telemetry.Default.Counter("payload_copy_bytes").Value()
	detach0 := giop.ReadFrameStats().Detached
	for i := 0; i < ops; i++ {
		if err := invoke(); err != nil {
			return bench4CopyPath{}, err
		}
	}
	name := "Invoke"
	if view {
		name = "InvokeView"
	}
	n := float64(ops)
	return bench4CopyPath{
		API:         name,
		Ops:         ops,
		CopiesPerOp: float64(telemetry.Default.Counter("payload_copy_total").Value()-copies0) / n,
		BytesPerOp:  float64(telemetry.Default.Counter("payload_copy_bytes").Value()-bytes0) / n,
		DetachPerOp: float64(giop.ReadFrameStats().Detached-detach0) / n,
	}, nil
}
