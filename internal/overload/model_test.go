package overload

import (
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// refModel is an executable reference of the control step, written from the
// control law rather than from step: it is fed every completion's latency —
// it never samples — and keeps the AIMD limit, the brown-out ladder with its
// hysteresis, and each tenant's credit in plain fields.
type refModel struct {
	cfg                 Config
	limit               int64
	level               int32
	overRun, healthyRun int
	tiers               map[uint64]Tier  // registered tenants; id 0 is the Tier1 default
	credit              map[uint64]int64 // after the last step
}

// refWindow is what one control window showed the model.
type refWindow struct {
	latencies []int64 // every completion's, sampled or not
	shed      int64
	inflight  int64 // admitted and unsettled when the window closes
}

func newRefModel(cfg Config) *refModel {
	cfg = cfg.withDefaults()
	return &refModel{cfg: cfg, limit: int64(cfg.MaxLimit),
		tiers: map[uint64]Tier{0: Tier1}, credit: map[uint64]int64{}}
}

// bucketCeil is the top of v's bucket, the bound the controller reports a
// p99 sample as: one nanosecond wide below 32, then sixteen buckets to an
// octave.
func bucketCeil(v int64) int64 {
	if v < 32 {
		return v + 1
	}
	s := bits.Len64(uint64(v)) - 5 // v>>s is in [16, 32)
	return (v>>s + 1) << s
}

// step closes one window and reports whether its latency breached.
func (m *refModel) step(w refWindow) (breach bool) {
	done := int64(len(w.latencies))
	if done >= minSamples {
		sorted := slices.Clone(w.latencies)
		slices.Sort(sorted)
		// The p99 is the smallest sample with more than 99% at or below it.
		breach = bucketCeil(sorted[done*99/100]) > int64(m.cfg.TargetP99)
	}
	switch {
	case breach:
		m.limit = max(m.limit*3/4, int64(m.cfg.MinLimit))
	case done >= minSamples:
		m.limit = min(m.limit+4, int64(m.cfg.MaxLimit))
	}
	congested := w.inflight*4 >= m.limit*3
	if breach || (w.shed > 0 && w.shed >= done && congested) {
		m.healthyRun = 0
		if m.overRun++; m.overRun == 3 {
			m.overRun, m.level = 0, min(m.level+1, LevelRejectByTier)
		}
	} else {
		m.overRun = 0
		if m.healthyRun++; m.healthyRun == 8 {
			m.healthyRun, m.level = 0, max(m.level-1, LevelNormal)
		}
	}
	refill := max(done, m.limit)
	var total int64
	for _, tier := range m.tiers {
		total += int64(tierWeights[tier])
	}
	for id, tier := range m.tiers {
		m.credit[id] = int64(tierWeights[tier]) * refill / total
	}
	return breach
}

// modelConfig is the default control law with an hour-long window: Tick
// closes every window, so a window is exactly the arrivals a test drives.
func modelConfig() Config {
	return Config{TargetP99: 5 * time.Millisecond, Window: time.Hour, MinLimit: 4, MaxLimit: 256}
}

// settle completes an admitted request the way the server does: Done with
// its latency when the controller sampled it, Completed otherwise.
func settle(c *Controller, d Decision, latency int64) {
	if d.At != 0 {
		c.Done(latency)
	} else {
		c.Completed()
	}
}

// checkAgainstModel compares the controller with the model after a step.
func checkAgainstModel(t *testing.T, c *Controller, m *refModel, win int) {
	t.Helper()
	if got := int64(c.Limit()); got != m.limit {
		t.Fatalf("window %d: limit %d, model %d", win, got, m.limit)
	}
	if got := int32(c.Level()); got != m.level {
		t.Fatalf("window %d: level %d, model %d", win, got, m.level)
	}
	for id, want := range m.credit {
		got := c.def.credit.Load()
		if id != 0 {
			got = (*c.tenants.Load())[id].credit.Load()
		}
		if got != want {
			t.Fatalf("window %d: tenant %d credit %d, model %d", win, id, got, want)
		}
	}
}

// Below the sampling threshold the controller times every arrival, so a
// seeded trace of up to 2,048 arrivals a window must leave its limit, ladder
// level and every tenant's credit exactly where the model puts them, window
// after window. The traces mix quiet, healthy, breaching and near-target
// windows, tenants of every tier, drops, and requests held across windows so
// the limit is contested, credit is spent and the ladder climbs and comes
// back down.
func TestModelReplayBelowThreshold(t *testing.T) {
	tenants := []struct {
		id   uint64
		tier Tier
	}{{0, Tier1}, {1, Tier0}, {2, Tier1}, {3, TierBestEffort}}
	for _, seed := range []uint64{1, 2, 3} {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		c := NewController(modelConfig())
		m := newRefModel(modelConfig())
		for _, tn := range tenants[1:] {
			m.tiers[tn.id] = tn.tier
			c.state(tn.id, tn.tier) // registered from the start, as in the model
		}
		type held struct {
			d       Decision
			latency int64
		}
		var holds []held
		levels := map[int32]bool{}
		for win := 0; win < 300; win++ {
			var w refWindow
			finish := func(d Decision, latency int64, drop bool) {
				if drop {
					c.Dropped()
					return
				}
				settle(c, d, latency)
				w.latencies = append(w.latencies, latency)
			}
			// A window's latencies: the slow share decides the p99; some
			// windows sit right at the target's bucket.
			slowShare := []float64{0, 0.002, 0.05, 0.3}[rng.IntN(4)]
			latency := func() int64 {
				switch {
				case win%7 == 3:
					return int64(4*time.Millisecond) + rng.Int64N(int64(2*time.Millisecond))
				case rng.Float64() < slowShare:
					return int64(6*time.Millisecond) + rng.Int64N(int64(50*time.Millisecond))
				}
				return int64(20*time.Microsecond) + rng.Int64N(int64(2*time.Millisecond))
			}
			// Release some held requests from earlier windows.
			for len(holds) > 0 && rng.IntN(3) > 0 {
				h := holds[len(holds)-1]
				holds = holds[:len(holds)-1]
				finish(h.d, h.latency, rng.IntN(8) == 0)
			}
			n := []int{0, 10, 300, 1200, 1800}[rng.IntN(5)]
			for i := 0; i < n; i++ {
				tn := tenants[rng.IntN(len(tenants))]
				d := c.Admit(tn.id, tn.tier, sched.Priority(1+rng.IntN(31)))
				switch {
				case !d.OK:
					w.shed++
				case len(holds) < 200 && rng.IntN(10) == 0:
					holds = append(holds, held{d, latency()})
				default:
					finish(d, latency(), rng.IntN(20) == 0)
				}
			}
			w.inflight = int64(len(holds))
			if got := c.Inflight(); got != w.inflight {
				t.Fatalf("seed %d window %d: inflight %d, want %d", seed, win, got, w.inflight)
			}
			if got := c.shift.Load(); got != 0 {
				t.Fatalf("seed %d window %d: sampling 1 in 2^%d below the threshold", seed, win, got)
			}
			c.Tick()
			m.step(w)
			levels[m.level] = true
			checkAgainstModel(t, c, m, win)
		}
		if len(levels) < 3 {
			t.Errorf("seed %d: the trace reached ladder levels %v, want at least three", seed, levels)
		}
		c.Close()
	}
}

// drive admits n arrivals of the default tenant, completing each at once
// with latency lat(i), and returns what the window showed. They run as tier
// 0, which passes every ladder level: a breaching trace keeps completing.
func drive(c *Controller, n int, lat func(i int) int64) (w refWindow) {
	for i := 0; i < n; i++ {
		d := c.Admit(0, Tier0, sched.NormPriority)
		if !d.OK {
			w.shed++
			continue
		}
		l := lat(i)
		settle(c, d, l)
		w.latencies = append(w.latencies, l)
	}
	return w
}

// Above the threshold the controller times about one arrival in 2^k. With
// 100 k arrivals a window and the true p99 at least one bucket away from the
// target on either side, its breach verdict must be the model's — fed every
// latency — in every window, and with it the limit, the level and the
// credits, which count every completion.
func TestModelReplaySampledVerdicts(t *testing.T) {
	cfg := modelConfig()
	cfg.MaxLimit = 1 << 20
	rng := rand.New(rand.NewPCG(7, 0x5eed))
	c := NewController(cfg)
	defer c.Close()
	m := newRefModel(cfg)
	const n = 100_000
	for win := 0; win < 12; win++ {
		// 5% of arrivals at 12–40 ms put the true p99 there; 0.2% leave it
		// under 2 ms.
		slowShare := []float64{0.002, 0.05}[rng.IntN(2)]
		w := drive(c, n, func(int) int64 {
			if rng.Float64() < slowShare {
				return int64(12*time.Millisecond) + rng.Int64N(int64(28*time.Millisecond))
			}
			return int64(20*time.Microsecond) + rng.Int64N(int64(2*time.Millisecond))
		})
		c.Tick()
		m.step(w)
		checkAgainstModel(t, c, m, win)
		if got := c.shift.Load(); got != 6 {
			t.Fatalf("window %d: sampling 1 in 2^%d after %d arrivals, want 2^6", win, got, n)
		}
	}
}

// A 20 ms request at every 64th arrival is a periodic stream with the same
// period as the 1-in-2^6 sample 100 k arrivals a window get. A sampler that
// counted arrivals would see none of them, or all; the per-thread draw sees
// about 1/64 of its samples slow, and the window breaches as the model's
// does. The slow share of ~1,560 samples falls under the 1% the p99 needs in
// ~3% of windows, so the test asks for 16 breaching windows of 24 (failing
// by chance ~1e-8).
func TestModelReplayPeriodicSlowStillBreaches(t *testing.T) {
	cfg := modelConfig()
	cfg.MaxLimit = 1 << 30
	c := NewController(cfg)
	defer c.Close()
	m := newRefModel(cfg)
	const windows = 24
	breaches := 0
	for win := 0; win < windows; win++ {
		w := drive(c, 100_000, func(i int) int64 {
			if i%64 == 63 {
				return int64(20 * time.Millisecond)
			}
			return int64(100 * time.Microsecond)
		})
		before := c.Limit()
		c.Tick()
		if !m.step(w) {
			t.Fatalf("window %d: the model saw no breach", win)
		}
		if c.Limit() < before {
			breaches++
		}
	}
	t.Logf("%d of %d windows breached", breaches, windows)
	if breaches < 16 {
		t.Errorf("%d of %d windows breached; every 64th arrival at 20 ms is a p99 of 20 ms", breaches, windows)
	}
}

// Only a sampled arrival can find the window over and step, so after the
// arrival rate drops 1,000× the step that was due waits for the first
// sample at the old 1-in-2^6: within two windows of the new rate (200
// arrivals) with probability 1-(63/64)^200 ≈ 96%. That step sees the old
// window's arrivals and keeps 2^6. Over 50 trials the test asks for 38
// within two windows and every one within 20 (failing by chance ~1e-7).
func TestModelRateDropStepsWithinTwoWindows(t *testing.T) {
	c := NewController(modelConfig())
	defer c.Close()
	const fast, slow, trials = 100_000, 100, 50
	ok := func(int) int64 { return 1000 }
	drive(c, fast, ok)
	c.Tick()
	within2 := 0
	for trial := 0; trial < trials; trial++ {
		if got := c.shift.Load(); got != 6 {
			t.Fatalf("trial %d: sampling 1 in 2^%d after %d arrivals, want 2^6", trial, got, fast)
		}
		drive(c, fast, ok)
		// The window is over, and arrivals now come 100 a window.
		end := telemetry.Now()
		c.windowEnd.Store(end)
		arrivals := 0
		for c.windowEnd.Load() == end {
			if arrivals == 20*slow {
				t.Fatalf("trial %d: no step within 20 windows of the dropped rate", trial)
			}
			drive(c, 1, ok)
			arrivals++
		}
		if arrivals <= 2*slow {
			within2++
		}
	}
	t.Logf("%d of %d trials stepped within two windows of the dropped rate", within2, trials)
	if within2 < 38 {
		t.Errorf("%d of %d trials stepped within two windows, want at least 38", within2, trials)
	}
}
