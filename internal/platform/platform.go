// Package platform simulates the three execution platforms of the paper's
// evaluation (§3.1): the TimeSys RTSJ Reference Implementation on real-time
// Linux, Sun's Mackinac RTSJ VM on (non-real-time) SunOS, and a plain JDK
// 1.4 with its stop-the-world garbage collector. The paper's hardware is
// unavailable, so each platform is modelled as an execution-noise injector
// whose parameters reproduce the *relationships* the experiment
// demonstrates:
//
//   - JDK 1.4 suffers rare but long GC pauses, dominating its jitter;
//   - Mackinac suffers occasional OS system-thread preemptions (SunOS is
//     not a real-time OS), giving moderate jitter;
//   - the TimeSys RI on an RT-OS suffers only minimal scheduling noise.
//
// The injector is driven per operation with a deterministic seeded RNG, so
// runs are reproducible. Short pauses are busy-waited (a preempted CPU is
// busy from the application's point of view); long pauses sleep.
package platform

import (
	"math/rand"
	"time"
)

// Model describes one platform's noise characteristics.
type Model struct {
	// Name labels rows in the reproduced tables.
	Name string
	// BaseJitterMax is uniform per-operation scheduling noise.
	BaseJitterMax time.Duration
	// PreemptEvery is the mean number of operations between preemption
	// events (geometrically distributed); zero disables preemptions.
	PreemptEvery int
	// PreemptMin/PreemptMax bound a preemption pause.
	PreemptMin, PreemptMax time.Duration
	// GCEvery is the mean number of operations between stop-the-world GC
	// pauses; zero disables GC (RTSJ platforms never collect the regions).
	GCEvery int
	// GCMin/GCMax bound a GC pause.
	GCMin, GCMax time.Duration
}

// TimesysRI models the real-time Pentium system: TimeSys Linux with the
// RTSJ Reference Implementation. Minimal noise: an RT-OS keeps system
// threads from preempting the application.
func TimesysRI() Model {
	return Model{
		Name:          "TimesysRI",
		BaseJitterMax: 10 * time.Microsecond,
		PreemptEvery:  400,
		PreemptMin:    30 * time.Microsecond,
		PreemptMax:    120 * time.Microsecond,
	}
}

// Mackinac models the real-time Sun system: Sun's Mackinac RTSJ VM on SunOS
// 5.10. SunOS provides RT scheduling classes but is not a real-time OS, so
// system threads occasionally preempt the application — the paper measures
// visibly more jitter than on the RI.
func Mackinac() Model {
	return Model{
		Name:          "Mackinac",
		BaseJitterMax: 15 * time.Microsecond,
		PreemptEvery:  100,
		PreemptMin:    150 * time.Microsecond,
		PreemptMax:    400 * time.Microsecond,
	}
}

// JDK14 models the non-real-time Pentium system: Sun JDK 1.4 with the
// default stop-the-world collector. The GC "most likely cause[s] the
// garbage collector preempting the application threads", producing jitter
// an order of magnitude above the RTSJ platforms.
func JDK14() Model {
	return Model{
		Name:          "JDK14",
		BaseJitterMax: 20 * time.Microsecond,
		PreemptEvery:  150,
		PreemptMin:    100 * time.Microsecond,
		PreemptMax:    300 * time.Microsecond,
		GCEvery:       300,
		GCMin:         1500 * time.Microsecond,
		GCMax:         4000 * time.Microsecond,
	}
}

// Models returns the three paper platforms in Table 2 order.
func Models() []Model {
	return []Model{Mackinac(), TimesysRI(), JDK14()}
}

// Injector applies a Model's noise, one call per operation. Not safe for
// concurrent use; create one per driving goroutine.
type Injector struct {
	model Model
	rng   *rand.Rand

	untilPreempt int
	untilGC      int

	preempts int64
	gcPauses int64
}

// NewInjector returns a deterministic injector for the model.
func NewInjector(model Model, seed int64) *Injector {
	inj := &Injector{model: model, rng: rand.New(rand.NewSource(seed))}
	inj.untilPreempt = inj.nextEvent(model.PreemptEvery)
	inj.untilGC = inj.nextEvent(model.GCEvery)
	return inj
}

// Model returns the injector's platform model.
func (i *Injector) Model() Model { return i.model }

// Stats reports the number of preemption and GC events injected.
func (i *Injector) Stats() (preempts, gcPauses int64) { return i.preempts, i.gcPauses }

// Operation injects the model's noise for one operation: base scheduling
// jitter always, plus a preemption or GC pause when due. It returns the
// total pause it injected, a pure function of the model, the seed and the
// call count, so callers can reason about the noise in virtual time.
func (i *Injector) Operation() time.Duration {
	m := i.model
	var total time.Duration
	if m.BaseJitterMax > 0 {
		d := time.Duration(i.rng.Int63n(int64(m.BaseJitterMax) + 1))
		spin(d)
		total += d
	}
	if m.PreemptEvery > 0 {
		i.untilPreempt--
		if i.untilPreempt <= 0 {
			i.untilPreempt = i.nextEvent(m.PreemptEvery)
			i.preempts++
			d := i.uniform(m.PreemptMin, m.PreemptMax)
			spin(d)
			total += d
		}
	}
	if m.GCEvery > 0 {
		i.untilGC--
		if i.untilGC <= 0 {
			i.untilGC = i.nextEvent(m.GCEvery)
			i.gcPauses++
			d := i.uniform(m.GCMin, m.GCMax)
			pause(d)
			total += d
		}
	}
	return total
}

// nextEvent draws a geometric-ish gap with the given mean (at least 1).
func (i *Injector) nextEvent(mean int) int {
	if mean <= 0 {
		return 1 << 30 // effectively never
	}
	// Uniform on [1, 2*mean) has the right mean and enough spread for the
	// low-probability-tail behaviour the paper describes.
	return 1 + i.rng.Intn(2*mean)
}

func (i *Injector) uniform(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(i.rng.Int63n(int64(hi-lo)))
}

// spin busy-waits: short preemptions steal CPU without yielding the
// goroutine, which matches how higher-priority threads steal time from the
// measured thread.
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// pause models a long stop-the-world event; it yields the CPU like a
// suspended process would.
func pause(d time.Duration) {
	if d <= 0 {
		return
	}
	if d < time.Millisecond {
		spin(d)
		return
	}
	time.Sleep(d)
}
