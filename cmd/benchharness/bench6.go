package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corba"
	"repro/internal/metrics"
	"repro/internal/orb"
	"repro/internal/overload"
	"repro/internal/sched"
	"repro/internal/transport"
)

// bench6Snapshot is the schema of BENCH_6.json: adaptive overload control
// under a sustained tiered storm. One controller-equipped server with a
// fixed-service-time servant faces three tenants at three QoS tiers. The run
// has three phases:
//
//   - unloaded: every tier offers its nominal closed-loop load; this pins the
//     tier-0 baseline p99.
//   - overload: tier-1 and best-effort surge to ~10x the nominal offered
//     concurrency while tier-0 holds its nominal rate. The acceptance story:
//     tier-0's p99 stays within 1.5x its unloaded p99
//     (tier0_p99_ratio_vs_unloaded), and the excess best-effort load is shed
//     with fast reject replies (best_effort_shed_fraction >= 0.9).
//   - recovery: the surge stops and offered load returns to 1x; the brown-out
//     ladder must walk back down (deescalated_cleanly: level 0 at phase end).
//
// Durations are nanoseconds so the file diffs cleanly across runs.
type bench6Snapshot struct {
	Meta         benchMeta     `json:"meta"`
	ServiceNs    int64         `json:"service_ns"`
	Concurrency  int           `json:"concurrency"`
	TargetP99Ns  int64         `json:"target_p99_ns"`
	WindowNs     int64         `json:"window_ns"`
	MinLimit     int           `json:"min_limit"`
	MaxLimit     int           `json:"max_limit"`
	BaseWorkers  int           `json:"base_workers_per_tier"`
	SurgeWorkers int           `json:"surge_workers"`
	PhaseNs      int64         `json:"phase_ns"`
	Phases       []bench6Phase `json:"phases"`
	// Tier0P99RatioVsUnloaded is overload-phase tier-0 p99 divided by
	// unloaded-phase tier-0 p99. Acceptance: <= 1.5.
	Tier0P99RatioVsUnloaded float64 `json:"tier0_p99_ratio_vs_unloaded"`
	// BestEffortShedFraction is the fraction of best-effort requests that
	// reached the server during the overload phase and were rejected with a
	// shed reply. Acceptance: >= 0.9.
	BestEffortShedFraction float64 `json:"best_effort_shed_fraction"`
	BrownoutLevelOverload  int     `json:"brownout_level_end_overload"`
	BrownoutLevelRecovery  int     `json:"brownout_level_end_recovery"`
	// DeescalatedCleanly is true when the ladder returned to LevelNormal by
	// the end of the recovery phase.
	DeescalatedCleanly bool  `json:"deescalated_cleanly"`
	AdmissionSheds     int64 `json:"admission_sheds"`
	LimitEnd           int   `json:"limit_end"`
}

type bench6Phase struct {
	Name  string          `json:"name"`
	Tiers []bench6TierRow `json:"tiers"`
}

// bench6TierRow is one tenant tier's ledger for one phase. Offered counts
// every invocation attempt; completed and shed partition the ones that got an
// answer from the server (anything else — client-side backpressure — lands in
// errors). Latency statistics cover completions only.
type bench6TierRow struct {
	Tier       string  `json:"tier"`
	Offered    int64   `json:"offered"`
	Completed  int64   `json:"completed"`
	Shed       int64   `json:"shed"`
	Errors     int64   `json:"errors"`
	GoodputOps float64 `json:"goodput_ops_per_sec"`
	MedianNs   int64   `json:"median_ns"`
	P99Ns      int64   `json:"p99_ns"`
}

// Phase 0 is a settle bucket: workers start recording immediately, and dial /
// limiter-warmup noise lands there instead of polluting the unloaded baseline.
// Only the last three phases are reported.
const (
	b6PhaseWarm = iota
	b6PhaseUnloaded
	b6PhaseOverload
	b6PhaseRecovery
	b6NumPhases
)

var bench6PhaseNames = [b6NumPhases]string{"warm", "unloaded", "overload", "recovery"}

// bench6Tiers is the tenant lineup: id, tier, and dispatch priority. Tier-0
// rides a high band so fair queues drain it first; best-effort rides low.
var bench6Tiers = []struct {
	name   string
	tenant overload.Tenant
	prio   sched.Priority
}{
	{"tier0", overload.Tenant{ID: 1, Tier: overload.Tier0}, 24},
	{"tier1", overload.Tenant{ID: 2, Tier: overload.Tier1}, sched.NormPriority},
	{"best-effort", overload.Tenant{ID: 3, Tier: overload.TierBestEffort}, 4},
}

// bench6Rec is one worker's private ledger — merged after the run so the hot
// loop shares nothing.
type bench6Rec struct {
	offered   [b6NumPhases]int64
	completed [b6NumPhases]int64
	shed      [b6NumPhases]int64
	errs      [b6NumPhases]int64
	lats      [b6NumPhases][]time.Duration
}

// bench6Servant holds each invocation for a fixed service time, then echoes.
// A deterministic service time makes capacity — and therefore "10x offered
// overload" — a number rather than a vibe.
type bench6Servant struct{ d time.Duration }

func (s bench6Servant) Invoke(op string, in []byte) ([]byte, error) {
	time.Sleep(s.d)
	out := make([]byte, len(in))
	copy(out, in)
	return out, nil
}

// runBench6 drives the overload scenario and writes BENCH_6.json.
func runBench6(warmup, observations int, outPath string) error {
	const (
		service     = time.Millisecond
		concurrency = 4
		baseWorkers = 2  // per tier, all phases
		surgeT1     = 18 // extra tier-1 workers during overload
		surgeBE     = 36 // extra best-effort workers during overload
		phaseDur    = 1200 * time.Millisecond
	)
	// TargetP99 sits at 10x the service time: tight enough that a queue a few
	// deep breaches it, loose enough that a lone scheduler or GC hiccup does
	// not sawtooth the limit at 1x load. MaxLimit leaves headroom over the
	// six base workers so the unloaded phase admits freely.
	cfg := overload.Config{
		TargetP99: 10 * time.Millisecond,
		Window:    10 * time.Millisecond,
		MinLimit:  2,
		MaxLimit:  12,
	}
	ctrl := overload.NewController(cfg)
	defer ctrl.Close()

	net := transport.NewInproc()
	srv, err := orb.NewServer(orb.ServerConfig{
		Network: net, Addr: "bench6",
		Overload:        ctrl,
		RequestDeadline: 50 * time.Millisecond,
		Concurrency:     concurrency,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.RegisterServant("work", bench6Servant{d: service})
	srv.ServeBackground()

	shedBefore := overload.AdmissionSheds()
	payload := []byte("bench6-payload")

	var phase atomic.Int32
	var stop, surgeStop atomic.Bool
	var wg, surgeWG sync.WaitGroup
	recs := make(map[int][]*bench6Rec) // tier index -> worker ledgers

	// worker runs the closed loop: invoke, classify the outcome under the
	// phase that was current at submission, back off briefly after a reject
	// so a shed best-effort worker offers load rather than spinning the CPU.
	worker := func(cl *orb.Client, prio sched.Priority, halt *atomic.Bool, group *sync.WaitGroup) *bench6Rec {
		r := &bench6Rec{}
		group.Add(1)
		go func() {
			defer group.Done()
			for !halt.Load() {
				ph := int(phase.Load())
				start := time.Now()
				_, err := cl.Invoke("work", "echo", payload, prio)
				lat := time.Since(start)
				r.offered[ph]++
				switch {
				case err == nil:
					r.completed[ph]++
					r.lats[ph] = append(r.lats[ph], lat)
				case errors.Is(err, corba.ErrSystemException):
					r.shed[ph]++
					time.Sleep(time.Millisecond)
				default:
					r.errs[ph]++
					time.Sleep(time.Millisecond)
				}
			}
		}()
		return r
	}

	// One connection per tenant: the service context rides the client.
	clients := make([]*orb.Client, len(bench6Tiers))
	for ti, tier := range bench6Tiers {
		cl, err := orb.DialClient(orb.ClientConfig{
			Network: net, Addr: "bench6", Tenant: tier.tenant,
		})
		if err != nil {
			return err
		}
		defer cl.Close()
		clients[ti] = cl
		for w := 0; w < baseWorkers; w++ {
			recs[ti] = append(recs[ti], worker(cl, tier.prio, &stop, &wg))
		}
	}

	// Phase 1: unloaded baseline, after the settle bucket absorbs startup.
	// Cold-start invokes (lazy scope and pool setup) can breach the p99
	// target, cut the limit, and even tick the ladder; the settle must cover
	// the AIMD re-raise plus a full de-escalation before the baseline counts.
	time.Sleep(800 * time.Millisecond)
	phase.Store(b6PhaseUnloaded)
	time.Sleep(phaseDur)

	// Phase 2: tier-1 and best-effort surge; tier-0 holds its nominal rate.
	phase.Store(b6PhaseOverload)
	for w := 0; w < surgeT1; w++ {
		recs[1] = append(recs[1], worker(clients[1], bench6Tiers[1].prio, &surgeStop, &surgeWG))
	}
	for w := 0; w < surgeBE; w++ {
		recs[2] = append(recs[2], worker(clients[2], bench6Tiers[2].prio, &surgeStop, &surgeWG))
	}
	time.Sleep(phaseDur)
	levelOverload := ctrl.Level()

	// Phase 3: surge off, offered load back to 1x; the ladder must unwind.
	surgeStop.Store(true)
	phase.Store(b6PhaseRecovery)
	surgeWG.Wait()
	time.Sleep(phaseDur)
	levelRecovery := ctrl.Level()

	stop.Store(true)
	wg.Wait()

	// Merge the per-worker ledgers into per-phase, per-tier rows.
	snap := bench6Snapshot{
		Meta:         currentBenchMeta(),
		ServiceNs:    int64(service),
		Concurrency:  concurrency,
		TargetP99Ns:  int64(cfg.TargetP99),
		WindowNs:     int64(cfg.Window),
		MinLimit:     cfg.MinLimit,
		MaxLimit:     cfg.MaxLimit,
		BaseWorkers:  baseWorkers,
		SurgeWorkers: surgeT1 + surgeBE,
		PhaseNs:      int64(phaseDur),

		BrownoutLevelOverload: levelOverload,
		BrownoutLevelRecovery: levelRecovery,
		DeescalatedCleanly:    levelRecovery == int(overload.LevelNormal),
		AdmissionSheds:        overload.AdmissionSheds() - shedBefore,
		LimitEnd:              ctrl.Limit(),
	}
	var tier0P99 [b6NumPhases]time.Duration
	for ph := b6PhaseUnloaded; ph < b6NumPhases; ph++ {
		row := bench6Phase{Name: bench6PhaseNames[ph]}
		for ti, tier := range bench6Tiers {
			var t bench6TierRow
			t.Tier = tier.name
			var lats []time.Duration
			for _, r := range recs[ti] {
				t.Offered += r.offered[ph]
				t.Completed += r.completed[ph]
				t.Shed += r.shed[ph]
				t.Errors += r.errs[ph]
				lats = append(lats, r.lats[ph]...)
			}
			sum := metrics.Summarize(lats)
			t.GoodputOps = float64(t.Completed) / phaseDur.Seconds()
			t.MedianNs = int64(sum.Median)
			t.P99Ns = int64(sum.P99)
			if ti == 0 {
				tier0P99[ph] = sum.P99
			}
			row.Tiers = append(row.Tiers, t)
		}
		snap.Phases = append(snap.Phases, row)
	}
	if tier0P99[b6PhaseUnloaded] > 0 {
		snap.Tier0P99RatioVsUnloaded =
			float64(tier0P99[b6PhaseOverload]) / float64(tier0P99[b6PhaseUnloaded])
	}
	be := snap.Phases[b6PhaseOverload-b6PhaseUnloaded].Tiers[2]
	if answered := be.Completed + be.Shed; answered > 0 {
		snap.BestEffortShedFraction = float64(be.Shed) / float64(answered)
	}

	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}

	fmt.Printf("bench6: overload control (service=%s concurrency=%d limit=[%d,%d])\n",
		service, concurrency, cfg.MinLimit, cfg.MaxLimit)
	for ph := b6PhaseUnloaded; ph < b6NumPhases; ph++ {
		fmt.Printf("  phase %-9s", bench6PhaseNames[ph])
		for _, t := range snap.Phases[ph-b6PhaseUnloaded].Tiers {
			fmt.Printf("  %s ok=%d shed=%d p99=%s", t.Tier, t.Completed, t.Shed,
				metrics.Micros(time.Duration(t.P99Ns)))
		}
		fmt.Println()
	}
	fmt.Printf("  tier-0 p99 ratio vs unloaded: %.2f (accept <= 1.5)\n", snap.Tier0P99RatioVsUnloaded)
	fmt.Printf("  best-effort shed fraction:    %.2f (accept >= 0.9)\n", snap.BestEffortShedFraction)
	fmt.Printf("  brown-out level overload=%d recovery=%d deescalated=%v sheds=%d\n",
		levelOverload, levelRecovery, snap.DeescalatedCleanly, snap.AdmissionSheds)
	fmt.Printf("  wrote %s\n", outPath)
	return nil
}
