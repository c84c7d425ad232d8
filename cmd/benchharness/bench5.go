package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/corba"
	"repro/internal/metrics"
	"repro/internal/orb"
	"repro/internal/remote"
	"repro/internal/sched"
	"repro/internal/transport"
)

// bench5Snapshot is the schema of BENCH_5.json: cluster failover under
// sustained load. Three replicas serve one group through a directory; a
// replica-aware client drives pipelined idempotent invocations while one
// member is killed and later re-added. Sections:
//
//   - phases: goodput and latency per phase (baseline / one member down /
//     member re-added). The failover story is told by how little the
//     post-kill phase differs from baseline.
//   - failover_gap_ns: the longest success-to-success gap in the window
//     around the kill — the time the cluster was effectively silent. The
//     acceptance expectation is well under the breaker cooldown.
//   - kill_windows / readd_windows: 10ms goodput windows bracketing each
//     event, the raw shape of the dip and the heal.
//   - breaker_trips must be 0: a member death is a clean close plus one
//     failed redial, never five consecutive breaker charges.
//   - readd_sent proves the re-added member took real traffic after the
//     refresh named it again: its servant counts what it served.
//
// Durations are nanoseconds so the file diffs cleanly across runs.
type bench5Snapshot struct {
	Meta         benchMeta     `json:"meta"`
	Replicas     int           `json:"replicas"`
	Workers      int           `json:"workers"`
	PayloadBytes int           `json:"payload_bytes"`
	PhaseNs      int64         `json:"phase_ns"`
	Phases       []bench5Phase `json:"phases"`
	// FailoverGapNs is the longest gap between consecutive successful
	// completions in [kill, kill+phase).
	FailoverGapNs int64          `json:"failover_gap_ns"`
	BreakerTrips  int64          `json:"breaker_trips"`
	KillWindows   []bench5Window `json:"kill_windows"`
	ReaddWindows  []bench5Window `json:"readd_windows"`
	// ReaddSent counts invocations the re-added member served between the
	// re-add refresh and the end of the run.
	ReaddSent int64 `json:"readd_sent"`
}

type bench5Phase struct {
	Name       string  `json:"name"`
	Ops        int     `json:"ops"`
	Errors     int     `json:"errors"`
	GoodputOps float64 `json:"goodput_ops_per_sec"`
	MedianNs   int64   `json:"median_ns"`
	P99Ns      int64   `json:"p99_ns"`
}

// bench5Window is one 10ms goodput bucket relative to a kill/re-add event
// (negative offsets precede it).
type bench5Window struct {
	OffsetNs int64 `json:"offset_ns"`
	Ops      int   `json:"ops"`
}

// bench5Sample is one invocation's completion record.
type bench5Sample struct {
	at  int64 // completion time, ns since run start
	lat int64 // latency, ns
	ok  bool
}

const (
	bench5Replicas  = 3
	bench5Workers   = 8
	bench5Payload   = 256
	bench5PhaseDur  = 250 * time.Millisecond
	bench5WindowNs  = int64(10 * time.Millisecond)
	bench5WindowPre = 4  // windows shown before an event
	bench5WindowNum = 16 // windows shown after an event
)

func runBench5(warmup, obs int, outPath string) error {
	fmt.Printf("== BENCH_5 snapshot: cluster failover under load (%d replicas, %d workers) ==\n",
		bench5Replicas, bench5Workers)
	fmt.Printf("   (phases of %v: baseline, kill one member, re-add it)\n\n", bench5PhaseDur)

	net := transport.NewInproc()
	group := remote.PortKey("Bench5.In")

	// served counts the invocations each replica's servant answers.
	startReplica := func(addr string, served *atomic.Int64) (*orb.Server, error) {
		srv, err := orb.NewServer(orb.ServerConfig{Network: net, Addr: addr})
		if err != nil {
			return nil, err
		}
		srv.RegisterServant(group, corba.ServantFunc(func(op string, in []byte) ([]byte, error) {
			served.Add(1)
			return corba.EchoServant{}.Invoke(op, in)
		}))
		srv.ServeBackground()
		return srv, nil
	}

	addrs := make([]string, bench5Replicas)
	servers := make([]*orb.Server, bench5Replicas)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("b5-m%d", i)
		srv, err := startReplica(addrs[i], new(atomic.Int64))
		if err != nil {
			return err
		}
		defer srv.Close()
		servers[i] = srv
	}

	dir := cluster.NewDirectory()
	dir.Set(group, addrs...)
	dirSrv, err := orb.NewServer(orb.ServerConfig{Network: net, Addr: "b5-dir"})
	if err != nil {
		return err
	}
	defer dirSrv.Close()
	dir.Attach(dirSrv)
	dirSrv.ServeBackground()

	c, err := cluster.Dial(cluster.ClientConfig{
		Network: net, Directory: "b5-dir", Group: group,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	payload := make([]byte, bench5Payload)
	for i := 0; i < 256; i++ { // warm every member and scope pool
		if _, err := c.InvokeIdempotent(group, "echo", payload, sched.NormPriority); err != nil {
			return fmt.Errorf("warmup: %w", err)
		}
	}

	var (
		stop         atomic.Bool
		breakerTrips atomic.Int64
		wg           sync.WaitGroup
	)
	samples := make([][]bench5Sample, bench5Workers)
	t0 := time.Now()
	for w := 0; w < bench5Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prio := sched.MinPriority + sched.Priority(w*4%31)
			buf := make([]bench5Sample, 0, 1<<16)
			for !stop.Load() {
				s0 := time.Now()
				_, err := c.InvokeIdempotent(group, "echo", payload, prio)
				now := time.Now()
				if err != nil && errors.Is(err, orb.ErrCircuitOpen) {
					breakerTrips.Add(1)
				}
				buf = append(buf, bench5Sample{
					at: now.Sub(t0).Nanoseconds(), lat: now.Sub(s0).Nanoseconds(), ok: err == nil,
				})
			}
			samples[w] = buf
		}(w)
	}

	// Phase schedule: baseline, kill m1 (membership first, then process),
	// then re-add it and refresh the client.
	time.Sleep(bench5PhaseDur)
	killAt := time.Since(t0).Nanoseconds()
	dir.Remove(group, addrs[1])
	servers[1].Close()

	time.Sleep(bench5PhaseDur)
	readdAt := time.Since(t0).Nanoseconds()
	var readdServed atomic.Int64
	srv, err := startReplica(addrs[1], &readdServed)
	if err != nil {
		return err
	}
	defer srv.Close()
	dir.Add(group, addrs[1])
	if err := c.Refresh(); err != nil {
		return fmt.Errorf("refresh after re-add: %w", err)
	}

	time.Sleep(bench5PhaseDur)
	stop.Store(true)
	wg.Wait()

	all := make([]bench5Sample, 0, 1<<18)
	for _, buf := range samples {
		all = append(all, buf...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })

	snap := bench5Snapshot{
		Meta:         currentBenchMeta(),
		Replicas:     bench5Replicas,
		Workers:      bench5Workers,
		PayloadBytes: bench5Payload,
		PhaseNs:      bench5PhaseDur.Nanoseconds(),
		BreakerTrips: breakerTrips.Load(),
		ReaddSent:    readdServed.Load(),
	}
	phases := []struct {
		name     string
		from, to int64
	}{
		{"baseline", 0, killAt},
		{"one member down", killAt, readdAt},
		{"member re-added", readdAt, time.Since(t0).Nanoseconds()},
	}
	for _, ph := range phases {
		snap.Phases = append(snap.Phases, bench5Summarize(ph.name, all, ph.from, ph.to))
	}
	snap.FailoverGapNs = bench5LongestGap(all, killAt, readdAt)
	snap.KillWindows = bench5Windows(all, killAt)
	snap.ReaddWindows = bench5Windows(all, readdAt)

	for _, ph := range snap.Phases {
		fmt.Printf("  %-16s %8.0f ops/s  median %sµs  p99 %sµs  errors %d\n",
			ph.Name, ph.GoodputOps,
			metrics.Micros(time.Duration(ph.MedianNs)), metrics.Micros(time.Duration(ph.P99Ns)),
			ph.Errors)
	}
	fmt.Printf("  failover gap %sµs, breaker trips %d, re-added member served %d\n\n",
		metrics.Micros(time.Duration(snap.FailoverGapNs)), snap.BreakerTrips, snap.ReaddSent)

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

// bench5Summarize folds the completions landing in [from, to) into one
// phase row.
func bench5Summarize(name string, all []bench5Sample, from, to int64) bench5Phase {
	var lats []time.Duration
	ph := bench5Phase{Name: name}
	for _, s := range all {
		if s.at < from || s.at >= to {
			continue
		}
		if !s.ok {
			ph.Errors++
			continue
		}
		ph.Ops++
		lats = append(lats, time.Duration(s.lat))
	}
	if to > from {
		ph.GoodputOps = float64(ph.Ops) / (time.Duration(to - from)).Seconds()
	}
	if len(lats) > 0 {
		s := metrics.Summarize(lats)
		ph.MedianNs, ph.P99Ns = int64(s.Median), int64(s.P99)
	}
	return ph
}

// bench5LongestGap finds the longest stretch between consecutive successful
// completions within [from, to) — the failover silence.
func bench5LongestGap(all []bench5Sample, from, to int64) int64 {
	prev := from
	var gap int64
	for _, s := range all {
		if s.at < from || s.at >= to || !s.ok {
			continue
		}
		if d := s.at - prev; d > gap {
			gap = d
		}
		prev = s.at
	}
	return gap
}

// bench5Windows buckets successful completions into 10ms windows around an
// event at t (bench5WindowPre before, bench5WindowNum after).
func bench5Windows(all []bench5Sample, t int64) []bench5Window {
	out := make([]bench5Window, 0, bench5WindowPre+bench5WindowNum)
	for i := -bench5WindowPre; i < bench5WindowNum; i++ {
		lo := t + int64(i)*bench5WindowNs
		hi := lo + bench5WindowNs
		w := bench5Window{OffsetNs: int64(i) * bench5WindowNs}
		for _, s := range all {
			if s.ok && s.at >= lo && s.at < hi {
				w.Ops++
			}
		}
		out = append(out, w)
	}
	return out
}
