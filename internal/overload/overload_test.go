package overload

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// testConfig returns a config whose inline window never fires on its own
// (Window = 1h), so tests drive every control step explicitly with Tick.
func testConfig() Config {
	return Config{
		TargetP99: time.Millisecond,
		Window:    time.Hour,
		MinLimit:  4,
		MaxLimit:  128,
	}
}

// TestConfigSurface pins the number of settable values a Controller has:
// the control target, the window and the limit's bounds. The control law's
// gains are constants; adding a setting should be a conscious diff here.
func TestConfigSurface(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n != 4 {
		t.Errorf("Config has %d fields, want 4", n)
	}
}

// admitN admits and completes n requests at the given latency, a
// full-window workload for AIMD tests. It runs as tier 0 so the traffic
// passes every brown-out level — the tests here steer the ladder by window
// signal, not by admission outcome.
func admitN(t *testing.T, c *Controller, n int, latency time.Duration) {
	t.Helper()
	for i := 0; i < n; i++ {
		if d := c.Admit(0, Tier0, sched.NormPriority); !d.OK {
			t.Fatalf("admit %d/%d rejected (limit %d, inflight %d)", i, n, c.Limit(), c.Inflight())
		}
		c.Done(int64(latency))
	}
}

// The AIMD loop raises additively on healthy windows, cuts multiplicatively
// on a p99 breach, and ignores windows with too few samples.
func TestAIMDRaiseAndCut(t *testing.T) {
	cfg := testConfig()
	cfg.MaxLimit = 128
	c := NewController(cfg)
	defer c.Close()
	c.limit.Store(64) // start mid-range so both directions are visible

	admitN(t, c, 16, 100*time.Microsecond) // well under the 1ms target
	c.Tick()
	if got := c.Limit(); got != 68 {
		t.Errorf("healthy window: limit = %d, want 64+4", got)
	}

	admitN(t, c, 16, 10*time.Millisecond) // 10× the target
	c.Tick()
	if got := c.Limit(); got != 51 {
		t.Errorf("breach window: limit = %d, want 68*3/4", got)
	}

	admitN(t, c, 3, 10*time.Millisecond) // breach latency, but < minSamples
	c.Tick()
	if got := c.Limit(); got != 51 {
		t.Errorf("thin window moved the limit to %d, want unchanged 51", got)
	}
}

// Arrivals step the controller, completions do not: once the window has
// elapsed, Dones at breach latency leave the limit alone, and the next Admit
// runs the step — and is judged by the cut limit.
func TestAIMDStepsOnArrival(t *testing.T) {
	c := NewController(testConfig())
	defer c.Close()
	c.limit.Store(64)

	for i := 0; i < 16; i++ {
		if !c.Admit(0, Tier0, sched.NormPriority).OK {
			t.Fatalf("admit %d rejected", i)
		}
	}
	// The hour-long window ends now, as if it had elapsed; Tick would run
	// the step itself and leave nothing for the arrival to prove.
	c.windowEnd.Store(telemetry.Now())
	for i := 0; i < 16; i++ {
		c.Done(int64(10 * time.Millisecond))
	}
	if got := c.Limit(); got != 64 {
		t.Fatalf("limit = %d after completions alone, want 64: Done must not step", got)
	}
	d := c.Admit(0, Tier0, sched.NormPriority)
	if !d.OK {
		t.Fatal("stepping arrival rejected")
	}
	c.Dropped()
	if got := c.Limit(); got != 48 {
		t.Errorf("limit = %d after the next arrival, want 64*3/4: Admit must step", got)
	}
}

// Admit stamps the decision with the clock read it steps by.
func TestOverloadAdmitStampsArrival(t *testing.T) {
	c := NewController(testConfig())
	defer c.Close()
	before := telemetry.Now()
	d := c.Admit(0, Tier1, sched.NormPriority)
	after := telemetry.Now()
	if !d.OK {
		t.Fatal("rejected")
	}
	c.Done(after - d.At)
	if d.At < before || d.At > after {
		t.Errorf("Decision.At = %d, want within [%d, %d]", d.At, before, after)
	}
}

// Counts reports one completion per Done in a window, after a Tick empties
// it, and after a 16-goroutine storm.
func TestOverloadCountsTrackDone(t *testing.T) {
	c := NewController(testConfig())
	defer c.Close()
	admitN(t, c, 5, 100*time.Microsecond)
	if !c.Admit(0, Tier0, sched.NormPriority).OK {
		t.Fatal("rejected")
	}
	c.Dropped()
	if done, dropped, _ := c.Counts(); done != 5 || dropped != 1 {
		t.Errorf("Counts = (%d, %d), want (5, 1)", done, dropped)
	}
	c.Tick()
	if done, dropped, shed := c.Counts(); done != 0 || dropped != 0 || shed != 0 {
		t.Errorf("Counts after Tick = (%d, %d, %d), want zeros", done, dropped, shed)
	}
	admitN(t, c, 3, time.Millisecond)
	if done, _, _ := c.Counts(); done != 3 {
		t.Errorf("done = %d after Tick and 3 completions, want 3", done)
	}

	c.Tick()
	const workers, perWorker = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if !c.Admit(uint64(w%4), Tier0, sched.NormPriority).OK {
					t.Error("storm admit rejected")
					return
				}
				c.Done(int64(i) * 1000)
			}
		}(w)
	}
	wg.Wait()
	if done, _, _ := c.Counts(); done != workers*perWorker {
		t.Errorf("done = %d after the storm, want %d", done, workers*perWorker)
	}
}

// The limit never leaves [MinLimit, MaxLimit].
func TestAIMDBounds(t *testing.T) {
	cfg := testConfig()
	cfg.MinLimit, cfg.MaxLimit = 4, 16
	c := NewController(cfg)
	defer c.Close()
	for i := 0; i < 10; i++ {
		admitN(t, c, minSamples, 10*time.Millisecond)
		c.Tick()
	}
	if got := c.Limit(); got != 4 {
		t.Errorf("after sustained breach: limit = %d, want floor 4", got)
	}
	for i := 0; i < 20; i++ {
		admitN(t, c, minSamples, 10*time.Microsecond)
		c.Tick()
	}
	if got := c.Limit(); got != 16 {
		t.Errorf("after sustained health: limit = %d, want ceiling 16", got)
	}
}

// Satellite: rejections are not a latency signal. A burst of downstream
// failures — circuit-breaker opens (orb.ErrCircuitOpen), requests dropped
// unrun, admission rejections — reaches the controller as Dropped calls and
// must leave the AIMD limit alone. Only completion latency and deadline-shed
// bursts may cut it. Table-driven over signal mixes.
func TestRejectionsAreNotLatencySignal(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fast      int // completions at 100µs
		slow      int // completions at 10ms
		dropped   int // breaker/shed rejections
		wantLimit func(start int) int
	}{
		{name: "pure drop burst", dropped: 500,
			wantLimit: func(s int) int { return s }},
		{name: "drops with thin fast traffic", fast: 4, dropped: 200,
			wantLimit: func(s int) int { return s }},
		{name: "drops beside healthy traffic", fast: 16, dropped: 200,
			wantLimit: func(s int) int { return s + 4 }},
		{name: "genuine breach still cuts", slow: 16, dropped: 50,
			wantLimit: func(s int) int { return s * 3 / 4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewController(testConfig())
			defer c.Close()
			c.limit.Store(64)
			for i := 0; i < tc.fast; i++ {
				c.Admit(0, Tier1, sched.NormPriority)
				c.Done(int64(100 * time.Microsecond))
			}
			for i := 0; i < tc.slow; i++ {
				c.Admit(0, Tier1, sched.NormPriority)
				c.Done(int64(10 * time.Millisecond))
			}
			for i := 0; i < tc.dropped; i++ {
				c.Admit(0, Tier1, sched.NormPriority)
				c.Dropped()
			}
			c.Tick()
			if got, want := c.Limit(), tc.wantLimit(64); got != want {
				t.Errorf("limit = %d, want %d", got, want)
			}
		})
	}
}

// A deadline-shed storm — this controller's own admitted requests settled
// as Expired — IS a breach signal: work is dying in queue even if the
// completions that do run look fast.
func TestDeadlineShedBurstCutsLimit(t *testing.T) {
	c := NewController(testConfig())
	defer c.Close()
	c.limit.Store(64)
	admitN(t, c, 16, 100*time.Microsecond)
	for i := 0; i < 10; i++ {
		if !c.Admit(0, Tier0, sched.NormPriority).OK {
			t.Fatalf("admit %d rejected", i)
		}
		c.Expired()
	}
	c.Tick()
	if got := c.Limit(); got != 48 {
		t.Errorf("limit = %d after deadline-shed burst, want 64*3/4", got)
	}
}

// Over the limit, admission spends per-tenant credit refilled in proportion
// to tier weight: a best-effort flood exhausts its share while a tier-0
// tenant keeps getting through.
func TestWeightedCreditSharing(t *testing.T) {
	cfg := testConfig()
	cfg.MinLimit, cfg.MaxLimit = 4, 8
	c := NewController(cfg)
	defer c.Close()
	c.limit.Store(8)

	// Register both tenants, then Tick to deal window credits:
	// refill = max(done, limit) = 8 over weights {16 (t0), 1 (be), 4 (def t1)}.
	if d := c.Admit(1, Tier0, 24); !d.OK {
		t.Fatal("tier-0 registration admit rejected")
	}
	c.Done(1000)
	if d := c.Admit(2, TierBestEffort, 8); !d.OK {
		t.Fatal("best-effort registration admit rejected")
	}
	c.Done(1000)
	c.Tick()

	// Saturate the limit with neutral in-flight work.
	for i := 0; i < 8; i++ {
		if d := c.Admit(0, Tier1, sched.NormPriority); !d.OK {
			t.Fatalf("fill admit %d rejected", i)
		}
	}
	// Contested now. Best effort (weight 1 of 21, credit 0) is shed at
	// once; tier 0 (weight 16, credit 6) keeps landing.
	beOK, t0OK := 0, 0
	for i := 0; i < 4; i++ {
		if c.Admit(2, TierBestEffort, 8).OK {
			beOK++
			c.Done(1000)
		}
		if c.Admit(1, Tier0, 24).OK {
			t0OK++
			c.Done(1000)
		}
	}
	if beOK != 0 {
		t.Errorf("best-effort admitted %d over-limit requests, want 0 (credit exhausted)", beOK)
	}
	if t0OK != 4 {
		t.Errorf("tier-0 admitted %d/4 over-limit requests, want all (weighted credit)", t0OK)
	}
}

// The hard cap bounds overshoot even for credit-rich tenants.
func TestHardCap(t *testing.T) {
	cfg := testConfig()
	cfg.MinLimit, cfg.MaxLimit = 8, 8
	c := NewController(cfg)
	defer c.Close()
	c.Tick() // deal credits at limit 8
	admitted := 0
	for i := 0; i < 64; i++ {
		if c.Admit(1, Tier0, 24).OK {
			admitted++
		}
	}
	// limit + limit/4 = 10.
	if admitted > 10 {
		t.Errorf("admitted %d in-flight, hard cap is 10", admitted)
	}
	if got := c.Inflight(); got != int64(admitted) {
		t.Errorf("inflight = %d after %d admissions, rejects leaked a slot", got, admitted)
	}
}

// The brown-out ladder escalates after escalateAfter (3) consecutive
// overloaded windows, de-escalates after deescalateAfter (8) healthy ones, and
// each level rejects what it promises.
func TestBrownoutLadder(t *testing.T) {
	c := NewController(testConfig())
	defer c.Close()
	c.limit.Store(64)

	overloadWindow := func() { admitN(t, c, 16, 10*time.Millisecond); c.Tick() }
	healthyWindow := func() { admitN(t, c, 16, 10*time.Microsecond); c.Tick() }

	overloadWindow()
	overloadWindow()
	if got := c.Level(); got != int(LevelNormal) {
		t.Fatalf("two overloaded windows escalated to %d; hysteresis requires 3", got)
	}
	overloadWindow()
	if got := c.Level(); got != int(LevelShedLowest) {
		t.Fatalf("level = %d after 3 overloaded windows, want ShedLowest", got)
	}
	overloadWindow()
	overloadWindow()
	overloadWindow()
	if got := c.Level(); got != int(LevelRejectBestEffort) {
		t.Fatalf("level = %d after 6 overloaded windows, want RejectBestEffort", got)
	}
	// At level 2, best effort is rejected outright regardless of congestion.
	if c.Admit(9, TierBestEffort, 24).OK {
		t.Error("RejectBestEffort admitted a best-effort request")
	}
	if !c.Admit(8, Tier1, sched.NormPriority).OK {
		t.Error("RejectBestEffort rejected a tier-1 request")
	}
	c.Dropped()

	overloadWindow()
	overloadWindow()
	overloadWindow()
	if got := c.Level(); got != int(LevelRejectByTier) {
		t.Fatalf("level = %d, want RejectByTier", got)
	}
	if c.Admit(8, Tier1, sched.MaxPriority).OK {
		t.Error("RejectByTier admitted a tier-1 request")
	}
	if !c.Admit(7, Tier0, sched.MinPriority).OK {
		t.Error("RejectByTier rejected a tier-0 request")
	}
	c.Dropped()

	// De-escalation: one level per deescalateAfter healthy windows.
	for i := 0; i < 7; i++ {
		healthyWindow()
	}
	if got := c.Level(); got != int(LevelRejectByTier) {
		t.Fatalf("level dropped to %d after 7 healthy windows; hysteresis requires 8", got)
	}
	healthyWindow()
	if got := c.Level(); got != int(LevelRejectBestEffort) {
		t.Fatalf("level = %d after 8 healthy windows, want RejectBestEffort", got)
	}
	for i := 0; i < 16; i++ {
		healthyWindow()
	}
	if got := c.Level(); got != int(LevelNormal) {
		t.Errorf("level = %d after recovery, want Normal", got)
	}
}

// LevelShedLowest sheds only when congested, and only sub-threshold or
// best-effort traffic; tier-0 always passes.
func TestShedLowestSelectivity(t *testing.T) {
	cfg := testConfig()
	cfg.MinLimit, cfg.MaxLimit = 16, 16
	c := NewController(cfg) // sheds below priority 7, the lower half of the band
	defer c.Close()
	c.setLevel(LevelShedLowest)

	// Uncongested: everything passes.
	if !c.Admit(2, TierBestEffort, 5).OK {
		t.Error("uncongested ShedLowest rejected best effort")
	}
	// Congest: 12 in-flight of 16 hits the 3/4 threshold (1 already held).
	for i := 0; i < 11; i++ {
		if !c.Admit(0, Tier1, 20).OK {
			t.Fatalf("congestion fill %d rejected", i)
		}
	}
	if c.Admit(2, TierBestEffort, 30).OK {
		t.Error("congested ShedLowest admitted best effort")
	}
	if c.Admit(0, Tier1, 5).OK {
		t.Error("congested ShedLowest admitted tier-1 below the priority threshold")
	}
	if !c.Admit(0, Tier1, 15).OK {
		t.Error("congested ShedLowest rejected tier-1 above the priority threshold")
	}
	c.Dropped()
	if !c.Admit(1, Tier0, 2).OK {
		t.Error("congested ShedLowest rejected tier-0")
	}
	c.Dropped()
}

// Unknown wire tiers clamp to best effort — a hostile client cannot mint a
// privileged class.
func TestTierClamp(t *testing.T) {
	c := NewController(testConfig())
	defer c.Close()
	c.setLevel(LevelRejectBestEffort)
	if c.Admit(3, Tier(200), 24).OK {
		t.Error("out-of-range tier admitted at RejectBestEffort; must clamp to best effort")
	}
}

// Explicit tenants get distinct fair-queue classes; class 0 stays reserved
// for unclassified traffic.
func TestTenantClassAssignment(t *testing.T) {
	c := NewController(testConfig())
	defer c.Close()
	if d := c.Admit(0, Tier1, 15); !d.OK || d.Class != 0 {
		t.Errorf("unclassified admit class = %d, want 0", d.Class)
	}
	c.Dropped()
	seen := map[uint8]bool{}
	for id := uint64(1); id <= 4; id++ {
		d := c.Admit(id, Tier1, 15)
		if !d.OK {
			t.Fatalf("tenant %d rejected", id)
		}
		if d.Class == 0 {
			t.Errorf("tenant %d assigned the reserved class 0", id)
		}
		if seen[d.Class] {
			t.Errorf("tenant %d shares class %d with an earlier tenant (only %d tenants)", id, d.Class, id-1)
		}
		seen[d.Class] = true
		c.Dropped()
	}
}

// The admission fast path and the completion path must not allocate: they
// run per request on the dispatch path. Both settle paths are covered: a
// sampled arrival completed with Done, and — past the sampling threshold —
// an unsampled one completed with Completed.
func TestAdmitDoneAllocFree(t *testing.T) {
	c := NewController(testConfig())
	defer c.Close()
	c.Admit(7, Tier0, 20) // pre-register the explicit tenant (cold path)
	c.Done(1000)
	allocs := testing.AllocsPerRun(200, func() {
		if !c.Admit(0, Tier1, sched.NormPriority).OK {
			t.Fatal("rejected")
		}
		c.Done(int64(50 * time.Microsecond))
	})
	if allocs != 0 {
		t.Errorf("untiered Admit+Done allocates %.1f objects/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if !c.Admit(7, Tier0, 20).OK {
			t.Fatal("rejected")
		}
		c.Done(int64(50 * time.Microsecond))
	})
	if allocs != 0 {
		t.Errorf("registered-tenant Admit+Done allocates %.1f objects/op, want 0", allocs)
	}

	// A window of 2^16 arrivals makes the next one sample 1 in 2^6.
	for i := 0; i < 1<<16; i++ {
		c.Admit(0, Tier1, sched.NormPriority)
		c.Completed()
	}
	c.Tick()
	if k := c.shift.Load(); k != 6 {
		t.Fatalf("sampling 1 in 2^%d after 2^16 arrivals, want 2^6", k)
	}
	unsampled := 0
	allocs = testing.AllocsPerRun(200, func() {
		d := c.Admit(0, Tier1, sched.NormPriority)
		if !d.OK {
			t.Fatal("rejected")
		}
		if d.At == 0 {
			unsampled++
		}
		c.Completed()
	})
	if allocs != 0 {
		t.Errorf("unsampled Admit+Completed allocates %.1f objects/op, want 0", allocs)
	}
	if unsampled == 0 {
		t.Error("no arrival of 201 went unsampled at 1 in 2^6")
	}
}

// The sample is sized from the arrivals of the window before: all of them
// up to 2,048, then 1 in 2^k for 1,024–2,047 samples.
func TestSampleShift(t *testing.T) {
	for _, tc := range []struct {
		n int64
		k uint32
	}{{0, 0}, {1, 0}, {2048, 0}, {2049, 1}, {4095, 1}, {4096, 2}, {100_000, 6}, {1 << 40, 30}} {
		k := sampleShift(tc.n)
		if k != tc.k {
			t.Errorf("sampleShift(%d) = %d, want %d", tc.n, k, tc.k)
		}
		if got := tc.n >> k; tc.n > 2048 && (got < sampleBudget || got >= 2*sampleBudget) {
			t.Errorf("%d arrivals at 1 in 2^%d leave %d samples, want 1,024–2,047", tc.n, k, got)
		}
	}
}

// Past the threshold an unsampled arrival reads no clock (At 0) and its
// Completed counts exactly like a Done: the ladder's shed >= done and the
// credit refill see every completion, the histogram only the samples.
func TestCompletedCountsWithoutSample(t *testing.T) {
	c := NewController(testConfig())
	defer c.Close()
	for i := 0; i < 4096; i++ {
		settle(c, c.Admit(0, Tier1, sched.NormPriority), int64(time.Microsecond))
	}
	c.Tick()
	if k := c.shift.Load(); k != 2 {
		t.Fatalf("sampling 1 in 2^%d after 4,096 arrivals, want 2^2", k)
	}
	sampled := 0
	for i := 0; i < 4096; i++ {
		d := c.Admit(0, Tier1, sched.NormPriority)
		if d.At != 0 {
			sampled++
		}
		settle(c, d, int64(time.Microsecond))
	}
	if sampled < 700 || sampled > 1400 {
		t.Errorf("%d of 4,096 arrivals sampled at 1 in 4, want about 1,024", sampled)
	}
	if done, _, _ := c.Counts(); done != 4096 {
		t.Errorf("done = %d, want every one of 4,096 completions", done)
	}
	if _, samples := c.win.Swap(); samples != int64(sampled) {
		t.Errorf("histogram holds %d samples, want the %d sampled", samples, sampled)
	}
	if got := c.Inflight(); got != 0 {
		t.Errorf("inflight = %d, want 0", got)
	}
}

// Storm: concurrent admits/completions/drops from many goroutines with
// inline window stepping, checked for slot-accounting leaks. Run with
// -race.
func TestControllerStorm(t *testing.T) {
	cfg := testConfig()
	cfg.Window = time.Millisecond // let inline stepping fire for real
	cfg.MinLimit, cfg.MaxLimit = 4, 64
	c := NewController(cfg)
	defer c.Close()

	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := uint64(w % 5) // mix unclassified and 4 explicit tenants
			tier := Tier(w % 3)
			for i := 0; i < perWorker; i++ {
				d := c.Admit(id, tier, sched.Priority(1+(i%31)))
				if !d.OK {
					continue
				}
				switch i % 3 {
				case 0:
					c.Done(int64(i%1000) * 1000)
				case 1:
					c.Done(int64(time.Millisecond))
				default:
					c.Dropped() // breaker-style rejection after admit
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Inflight(); got != 0 {
		t.Errorf("inflight = %d after storm, want 0 (slot leak)", got)
	}
	if got := c.Limit(); got < cfg.MinLimit || got > cfg.MaxLimit {
		t.Errorf("limit = %d escaped [%d, %d]", got, cfg.MinLimit, cfg.MaxLimit)
	}
}

// A rejection storm against an uncongested limiter must not hold the ladder
// up. At an elevated level the ladder's own rejections are counted as sheds,
// and a rejected tenant that retries after every reject keeps `shed >= done`
// true indefinitely — without the congestion gate the brown-out would be
// self-sustaining and never de-escalate after the real pressure is gone.
func TestBrownoutDeescalatesThroughRejectionStorm(t *testing.T) {
	c := NewController(testConfig())
	defer c.Close()
	c.limit.Store(64)
	c.setLevel(LevelRejectByTier)

	// Three levels down at deescalateAfter healthy windows each, with slack.
	for w := 0; w < 3*deescalateAfter+6 && c.Level() != int(LevelNormal); w++ {
		// A trickle of healthy completions (tier 0 passes every level)...
		admitN(t, c, 4, 10*time.Microsecond)
		// ...while a shed tenant retries hard: many rejections, no inflight.
		for i := 0; i < 100; i++ {
			if c.Admit(5, TierBestEffort, 4).OK {
				c.Dropped()
			}
		}
		c.Tick()
	}
	if got := c.Level(); got != int(LevelNormal) {
		t.Errorf("level = %d after rejection-storm recovery, want Normal", got)
	}
}

// The ladder comes down on arrivals alone. At LevelRejectByTier a server
// whose traffic is all tier 1 sheds every arrival, so nothing completes: a
// controller that stepped only on completions would stay at the top level
// for good. No Tick here — the real window clock drives every step.
func TestBrownoutDeescalatesWithoutCompletions(t *testing.T) {
	cfg := testConfig()
	cfg.Window = time.Millisecond
	c := NewController(cfg)
	defer c.Close()
	c.setLevel(LevelRejectByTier)

	deadline := time.Now().Add(time.Second)
	for c.Level() != int(LevelNormal) && time.Now().Before(deadline) {
		if c.Admit(5, Tier1, sched.NormPriority).OK {
			c.Dropped()
		}
	}
	if got := c.Level(); got != int(LevelNormal) {
		t.Errorf("level = %d after 1s of shed tier-1 arrivals, want Normal", got)
	}
	if got := c.Inflight(); got != 0 {
		t.Errorf("inflight = %d, want 0", got)
	}
}

// The tenant registry is bounded: past maxTenants an unseen id is accounted
// on its tier's spill state — no insert, no lock, no allocation — and the
// tier policy holds for spilled ids exactly as for registered ones.
func TestOverloadTenantRegistryBounded(t *testing.T) {
	c := NewController(testConfig())
	defer c.Close()
	first := c.state(1, Tier0)
	for id := uint64(1); id <= 10000; id++ {
		d := c.Admit(id, Tier(id%NumTiers), sched.NormPriority)
		if !d.OK {
			t.Fatalf("tenant %d rejected", id)
		}
		if d.Class == 0 {
			t.Fatalf("tenant %d given the reserved class 0", id)
		}
		c.Dropped()
	}
	if n := len(*c.tenants.Load()); n > maxTenants {
		t.Fatalf("registry holds %d tenants, cap is %d", n, maxTenants)
	}
	if c.state(1, Tier0) != first {
		t.Error("a registered tenant lost its state to the spill")
	}
	for tier := range c.spillLive {
		if !c.spillLive[tier].Load() {
			t.Errorf("no arrival spilled onto tier %d's state", tier)
		}
	}

	c.setLevel(LevelRejectBestEffort)
	if c.Admit(20001, TierBestEffort, sched.MaxPriority).OK {
		t.Error("a spilled best-effort id passed LevelRejectBestEffort")
	}
	c.setLevel(LevelRejectByTier)
	if !c.Admit(20002, Tier0, sched.MinPriority).OK {
		t.Error("a spilled tier-0 id was rejected at LevelRejectByTier")
	} else {
		c.Dropped()
	}
	if got := c.Inflight(); got != 0 {
		t.Errorf("inflight = %d, want 0", got)
	}

	// A live spill state shares the refill as one more tenant of its tier.
	// A large limit makes every share non-zero.
	const refill = 1 << 20
	c.limit.Store(refill)
	c.Tick()
	w := tierWeights
	total := int64(w[Tier1] + w[Tier0] + w[Tier1] + w[TierBestEffort]) // default + three spills
	for _, ts := range *c.tenants.Load() {
		total += int64(w[ts.tier])
	}
	want := int64(w[Tier0]) * refill / total
	if got := first.credit.Load(); got != want {
		t.Errorf("registered tier-0 credit = %d, want %d of a refill over every weight", got, want)
	}
	if got := c.spill[Tier0].credit.Load(); got != want {
		t.Errorf("tier-0 spill credit = %d, want %d, the share of a registered tier-0 tenant", got, want)
	}
	c.limit.Store(int64(c.cfg.MaxLimit))

	c.setLevel(LevelNormal)
	id := uint64(30000)
	allocs := testing.AllocsPerRun(200, func() {
		id++
		if !c.Admit(id, Tier1, sched.NormPriority).OK {
			t.Fatal("spilled admit rejected")
		}
		c.Dropped()
	})
	if allocs != 0 {
		t.Errorf("spilled Admit allocates %.1f objects/op, want 0", allocs)
	}
	if n := len(*c.tenants.Load()); n > maxTenants {
		t.Errorf("registry grew to %d past its cap of %d", n, maxTenants)
	}
}
