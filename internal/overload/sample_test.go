package overload

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// setSalt keys the current window's sample, as a step would with a drawn one.
func setSalt(c *Controller, salt uint64) { c.salt.Store(salt) }

// testSalts are the salts the draw tests try, from a fixed generator: each
// test must hold for every one of them, not for a salt picked to pass it.
func testSalts(n int) []uint64 {
	rng := rand.New(rand.NewPCG(1, 2))
	salts := make([]uint64, n)
	for i := range salts {
		salts[i] = rng.Uint64()
	}
	return salts
}

// sampledAt6 returns an hour-window controller that samples one arrival in
// 2^6: the window it stepped from saw 2^16 arrivals.
func sampledAt6(t *testing.T) *Controller {
	t.Helper()
	c := NewController(modelConfig())
	t.Cleanup(c.Close)
	for i := 0; i < 1<<16; i++ {
		c.Admit(0, Tier1, sched.NormPriority)
		c.Completed()
	}
	c.Tick()
	if k := c.shift.Load(); k != 6 {
		t.Fatalf("sampling 1 in 2^%d after 2^16 arrivals, want 2^6", k)
	}
	return c
}

// At 1 in 2^6 a single caller's 2^16 arrivals yield about 1,024 samples:
// ±15% is about five standard deviations.
func TestSampleDrawRate(t *testing.T) {
	for _, salt := range testSalts(8) {
		c := sampledAt6(t)
		setSalt(c, salt)
		sampled := 0
		for i := 0; i < 1<<16; i++ {
			d := c.Admit(0, Tier1, sched.NormPriority)
			if d.At != 0 {
				sampled++
			}
			settle(c, d, int64(time.Microsecond))
		}
		if sampled < 870 || sampled > 1178 {
			t.Errorf("salt %#x: %d of 2^16 arrivals sampled at 1 in 2^6, want 1,024 ± 15%%", salt, sampled)
		}
	}
}

// A periodic stream cannot alias with the sample: on streams of period 2, 3
// and 64 — phase 0 of each period dropped, the others completed, tenants
// cycling with the phase — every phase is sampled at its share. Each phase
// has 2^16 arrivals, about 1,024 samples; ±20% is over six standard
// deviations. Hashing the in-flight and completion word alone fails the
// dropped phase: its arrivals all read the word the one before left.
func TestSampleDrawPeriodicPhases(t *testing.T) {
	salt := testSalts(1)[0]
	for _, period := range []int{2, 3, 64} {
		c := sampledAt6(t)
		setSalt(c, salt)
		for id := uint64(1); id < 3; id++ {
			c.state(id, Tier1)
		}
		perPhase := make([]int, period)
		for i := 0; i < period<<16; i++ {
			phase := i % period
			d := c.Admit(uint64(phase%3), Tier1, sched.NormPriority)
			if !d.OK {
				t.Fatalf("period %d: arrival %d rejected", period, i)
			}
			if d.At != 0 {
				perPhase[phase]++
			}
			if phase == 0 {
				c.Dropped()
			} else {
				settle(c, d, int64(time.Microsecond))
			}
		}
		for phase, n := range perPhase {
			if n < 819 || n > 1229 {
				t.Errorf("period %d phase %d: %d of 2^16 arrivals sampled, want 1,024 ± 20%%", period, phase, n)
			}
		}
	}
}

// Every arrival advances the sample's index, however it ends, so a stream
// of any one kind keeps finding the overdue window step: shed-only traffic
// (best-effort tenants rejected by the ladder), admissions dropped unrun,
// and admissions completed. Each trial lets a window over, then counts the
// stream's arrivals to the step; at 1 in 2^6 a step more than 1,280 arrivals
// away has odds e^-20.
func TestSampleDrawStreamsKeepStepping(t *testing.T) {
	kinds := []struct {
		name   string
		shed   bool // best-effort arrivals, rejected by the ladder
		settle func(c *Controller, d Decision)
	}{
		{"shed-only", true, func(*Controller, Decision) {}},
		{"admit+Dropped", false, func(c *Controller, d Decision) { c.Dropped() }},
		{"admit+Completed", false, func(c *Controller, d Decision) { settle(c, d, int64(time.Microsecond)) }},
	}
	for _, kind := range kinds {
		c := NewController(modelConfig())
		tier := Tier1
		if kind.shed {
			tier = TierBestEffort
		}
		arrive := func() {
			d := c.Admit(0, tier, sched.NormPriority)
			if d.OK == kind.shed {
				t.Fatalf("%s: arrival admitted %v at level %d", kind.name, d.OK, c.Level())
			}
			kind.settle(c, d)
		}
		for trial := 0; trial < 10; trial++ {
			if kind.shed {
				c.setLevel(LevelRejectByTier)
			}
			for i := 0; i < 1<<16; i++ {
				arrive()
			}
			c.Tick()
			if k := c.shift.Load(); k != 6 {
				t.Fatalf("%s trial %d: sampling 1 in 2^%d after 2^16 arrivals, want 2^6", kind.name, trial, k)
			}
			end := telemetry.Now()
			c.windowEnd.Store(end)
			arrivals := 0
			for c.windowEnd.Load() == end {
				if arrivals == 1280 {
					t.Fatalf("%s trial %d: no step in 1,280 arrivals of an overdue window", kind.name, trial)
				}
				arrive()
				arrivals++
			}
		}
		c.Close()
	}
}

// A run replays: two controllers with the same salt, fed the same sequence
// of tenants, tiers and outcomes, sample the same arrivals. A third with
// another salt samples others.
func TestSampleDrawReplays(t *testing.T) {
	salts := testSalts(2)
	trace := func(salt uint64) []bool {
		c := sampledAt6(t)
		setSalt(c, salt)
		rng := rand.New(rand.NewPCG(3, 4))
		var sampled []bool
		for i := 0; i < 1<<14; i++ {
			d := c.Admit(rng.Uint64N(4), Tier(rng.IntN(NumTiers)), sched.Priority(1+rng.IntN(31)))
			sampled = append(sampled, d.At != 0)
			switch {
			case !d.OK:
			case rng.IntN(4) == 0:
				c.Dropped()
			default:
				settle(c, d, int64(time.Microsecond))
			}
		}
		return sampled
	}
	a, b, other := trace(salts[0]), trace(salts[0]), trace(salts[1])
	same, differ := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d: sampled %v by one controller, %v by its replay", i, a[i], b[i])
		}
		if a[i] {
			same++
		}
		if a[i] != other[i] {
			differ++
		}
	}
	if same == 0 || differ == 0 {
		t.Errorf("%d arrivals sampled, %d decided otherwise under another salt; want both non-zero", same, differ)
	}
}

// Each step draws a fresh salt, so no position of a window is sampled every
// window: the first arrival after a step (index 0, an idle controller's) is
// sampled in about 1 of 64 windows, not in all of them.
func TestSampleDrawSaltPerWindow(t *testing.T) {
	c := sampledAt6(t)
	first := 0
	const windows = 32
	for w := 0; w < windows; w++ {
		salt := c.salt.Load()
		d := c.Admit(0, Tier1, sched.NormPriority)
		if d.At != 0 {
			first++
		}
		settle(c, d, int64(time.Microsecond))
		for i := 1; i < 1<<16; i++ {
			c.Admit(0, Tier1, sched.NormPriority)
			c.Completed()
		}
		c.Tick()
		if c.salt.Load() == salt {
			t.Fatalf("window %d: the step kept the salt %#x", w, salt)
		}
	}
	if first > 6 {
		t.Errorf("a window's first arrival was sampled in %d of %d windows, want about 1 in 64", first, windows)
	}
}

// The tenant registry's newest entry is the last tenant registered: a later
// tenant takes it over while an earlier one still resolves, through the map,
// to the same state with its credit as it was. Neither the implicit tenant 0
// nor a spill state ever becomes the newest entry.
func TestTenantNewestEntry(t *testing.T) {
	c := NewController(testConfig())
	defer c.Close()
	c.state(0, Tier1)
	if ts := c.newest.Load(); ts != nil {
		t.Fatalf("tenant 0 became the newest entry (%p, the default is %p)", ts, &c.def)
	}
	first := c.state(1, Tier0)
	if c.newest.Load() != first {
		t.Fatal("the first registered tenant is not the newest entry")
	}
	first.credit.Store(17)
	second := c.state(2, TierBestEffort)
	if c.newest.Load() != second {
		t.Fatal("a later tenant did not become the newest entry")
	}
	if got := c.state(1, Tier0); got != first || got.credit.Load() != 17 {
		t.Errorf("the earlier tenant resolves to %p with credit %d, want %p with 17", got, got.credit.Load(), first)
	}
	if c.newest.Load() != second {
		t.Error("resolving an earlier tenant moved the newest entry")
	}
	if d := c.Admit(0, Tier1, sched.NormPriority); !d.OK || c.newest.Load() != second {
		t.Errorf("an admission of tenant 0 (ok %v) moved the newest entry", d.OK)
	}
	c.Dropped()

	// Fill the registry; the ids past its cap spill on every tier.
	var last *tenantState
	for id := uint64(3); id <= maxTenants+8; id++ {
		ts := c.state(id, Tier(id%NumTiers))
		if len(*c.tenants.Load()) <= maxTenants && ts.id == id {
			last = ts
		}
		for tier := range c.spill {
			if c.newest.Load() == &c.spill[tier] {
				t.Fatalf("tenant %d: tier %d's spill state became the newest entry", id, tier)
			}
		}
	}
	if c.newest.Load() != last || last.id != maxTenants {
		t.Errorf("newest entry is tenant %d, want the last registered, %d", c.newest.Load().id, maxTenants)
	}
	for tier := range c.spillLive {
		if !c.spillLive[tier].Load() {
			t.Errorf("no id spilled onto tier %d's state", tier)
		}
	}
}
