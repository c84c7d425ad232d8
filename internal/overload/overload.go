// Package overload is the server's closed-loop overload-control subsystem:
// tenant-aware weighted fair admission, an AIMD limit on in-flight dispatch
// driven by a windowed p99 latency signal, and a graceful brown-out ladder
// for sustained overload.
//
// The controller owns admission time, and it times a sample of admissions,
// not every one. While the previous control window saw at most 2,048
// arrivals every arrival is sampled; above that an arrival is sampled with
// probability 2^-k, k sized so a steady rate yields 1,024–2,047 samples a
// window — enough for the p99 the control law reads from telemetry's
// log-linear buckets, ~6% wide.
// Only a sampled arrival reads the clock: when the current window has
// elapsed, the sampled arrival that wins the window CAS runs one control
// step on its own goroutine before deciding — no background ticker, no
// lifecycle to leak — and the timestamp goes back in Decision.At, so the
// server times the request without a clock read of its own. Completions
// (Done for a sampled request, Completed for any other, Dropped for work
// that never ran, Expired for work whose queueing deadline passed) only
// release the slot, count and record. Both signals are this controller's
// own: the latency samples and the deadline sheds of the server it admits
// for, never another server's. The admission
// fast path is allocation-free: for an untiered tenant under the limit, one
// atomic add and, at rate, usually no clock read.
//
// The pieces compose as follows under load:
//
//   - Under the AIMD limit, every request is admitted (uncongested).
//   - Over the limit, admission spends per-tenant credit refilled each
//     window in proportion to the tenant's tier weight — deficit-style
//     weighted fair sharing of the contested headroom, so a best-effort
//     tenant exhausts its share long before a tier-0 tenant feels pressure.
//   - Sustained overload (p99 breach, deadline-shed bursts, or shedding
//     outpacing completions) escalates the brown-out ladder:
//     ShedLowest → reject-best-effort-tenant → reject-by-tier, and
//     de-escalates with hysteresis once the signal clears.
package overload

import (
	"maps"
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Tier is a tenant's QoS class. Lower is better: Tier0 is guaranteed
// traffic, TierBestEffort is the first to shed.
type Tier uint8

// The three tenant tiers. They ride the wire as one octet in the GIOP
// tenant service context.
const (
	// Tier0 is guaranteed traffic: shed only when nothing else remains.
	Tier0 Tier = 0
	// Tier1 is standard traffic.
	Tier1 Tier = 1
	// TierBestEffort is scavenger traffic: first shed under pressure,
	// rejected outright at brown-out level 2+.
	TierBestEffort Tier = 2

	// NumTiers is the number of QoS tiers.
	NumTiers = 3
)

// Clamp maps arbitrary wire octets into the valid tier range; unknown tiers
// degrade to best effort rather than impersonating guaranteed traffic.
func (t Tier) Clamp() Tier {
	if t >= NumTiers {
		return TierBestEffort
	}
	return t
}

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case Tier0:
		return "tier0"
	case Tier1:
		return "tier1"
	default:
		return "best-effort"
	}
}

// Tenant identifies one traffic source: an opaque id plus its QoS tier.
// The zero Tenant means unclassified traffic (no service context on the
// wire), which the controller treats as a single Tier1 tenant.
type Tenant struct {
	ID   uint64
	Tier Tier
}

// Brown-out ladder levels, escalated under sustained overload and
// de-escalated with hysteresis. Each transition is an EvState ring event on
// the "overload.brownout" label with the new level as the argument.
const (
	// LevelNormal: weighted fair admission only.
	LevelNormal int32 = 0
	// LevelShedLowest: while congested, best-effort traffic loses its
	// over-limit credit grace and sub-threshold-priority work from any
	// non-guaranteed tenant is shed.
	LevelShedLowest int32 = 1
	// LevelRejectBestEffort: best-effort tenants are rejected outright.
	LevelRejectBestEffort int32 = 2
	// LevelRejectByTier: only Tier0 traffic is served.
	LevelRejectByTier int32 = 3

	maxLevel = LevelRejectByTier
)

// Config parameterises a Controller. The zero value selects workable
// defaults for every field.
type Config struct {
	// TargetP99 is the control target: while the windowed p99 completion
	// latency stays at or below it the limit rises additively; a breach cuts
	// it multiplicatively. Zero selects 5ms.
	TargetP99 time.Duration
	// Window is the control-loop period. Zero selects 20ms.
	Window time.Duration
	// MinLimit/MaxLimit bound the AIMD in-flight limit. Zeros select 4 and
	// 1024. The limit starts at MaxLimit (optimistic, like gradient
	// limiters) and converges down under load.
	MinLimit, MaxLimit int
}

// The control law's fixed gains.
const (
	// raiseStep is the additive raise per healthy window.
	raiseStep = 4
	// backoffPct is the multiplicative cut on breach, in percent of the
	// current limit that survives: three quarters.
	backoffPct = 75
	// minSamples is the minimum completions in a window for its p99 to move
	// the limit either way.
	minSamples = 16
	// shedBurst is the deadline-shed count within one window treated as a
	// breach regardless of p99.
	shedBurst = 8
	// escalateAfter is how many consecutive overloaded windows raise the
	// brown-out ladder one level.
	escalateAfter = 3
	// deescalateAfter is how many consecutive healthy windows lower it one
	// level — deliberately larger than escalateAfter for hysteresis.
	deescalateAfter = 8
	// sampleBudget is the fewest latency samples a window aims for once it
	// stops sampling every arrival, at twice this many arrivals: the p99 is
	// then about the tenth-largest sample, which the ~6% buckets resolve.
	sampleBudget = 1024
)

// tierWeights are the fair-share weights per tier: a tier-0 tenant gets 16×
// a best-effort tenant's share of the contested headroom.
var tierWeights = [NumTiers]int{16, 4, 1}

// shedPrioBelow is the LevelShedLowest priority threshold: while at that
// level and congested, non-Tier0 requests below this priority — the lower
// half of the band — are shed.
const shedPrioBelow = sched.NormPriority / 2

func (c Config) withDefaults() Config {
	if c.TargetP99 <= 0 {
		c.TargetP99 = 5 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 20 * time.Millisecond
	}
	if c.MinLimit <= 0 {
		c.MinLimit = 4
	}
	if c.MaxLimit <= 0 {
		c.MaxLimit = 1024
	}
	if c.MaxLimit < c.MinLimit {
		c.MaxLimit = c.MinLimit
	}
	return c
}

// Shed counters, exported at /metrics with the compadres_ prefix. The
// per-tier counters flatten the {tier} label into the name.
var (
	admissionShedTotal = telemetry.NewCounter("admission_shed_total")
	admissionShedTier  = [NumTiers]*telemetry.Counter{
		telemetry.NewCounter("admission_shed_tier0_total"),
		telemetry.NewCounter("admission_shed_tier1_total"),
		telemetry.NewCounter("admission_shed_tier2_total"),
	}
	brownoutTransitions = telemetry.NewCounter("brownout_transition_total")
)

// brownoutLabel marks ladder transitions in the flight recorder.
var brownoutLabel = telemetry.Label("overload.brownout")

// AdmissionSheds returns the process-wide admission_shed_total count —
// requests rejected at the door across every controller.
func AdmissionSheds() int64 { return admissionShedTotal.Value() }

// tenantState is one tenant's admission accounting. credit is the tenant's
// remaining over-limit admissions this window, reset each control step to
// the tenant's weighted share of the contested headroom.
type tenantState struct {
	id     uint64
	tier   Tier
	class  uint8
	credit atomic.Int64
}

// maxTenants caps the tenant registry. The id is whatever a client puts on
// the wire, so past the cap an unseen id is not registered: it is accounted
// on its tier's shared spill state instead.
const maxTenants = 1024

// Decision is an Admit verdict.
type Decision struct {
	// OK reports whether the request was admitted. A false decision has
	// already been counted (admission_shed_total and the tier counter).
	OK bool
	// Class is the fair-queue tenant class for the admitted request (see
	// sched.FairQueue); 0 for unclassified traffic.
	Class uint8
	// At is the admitted request's arrival time (telemetry.Now) when the
	// controller sampled it — Done's latency sample is measured from it —
	// and 0 when it did not: settle such a request with Completed.
	At int64
}

// Controller is the overload-control state machine. All methods are safe
// for concurrent use; Admit, Done, Completed and Dropped are
// allocation-free.
type Controller struct {
	cfg Config

	limit atomic.Int64
	// flow packs the in-flight count (low 32 bits) and the window's
	// completions, sampled or not (high 32 bits), so that a completion is one
	// add of 1<<32-1. The low half never borrows: every settle follows its own
	// admit. step subtracts exactly the completions it read, never stores, so
	// none racing it is lost.
	flow  atomic.Int64
	level atomic.Int32
	// shift is the window's sampling exponent k: Admit samples one arrival
	// in 2^k. Each control step sets it from the arrivals of the window it
	// closes, and draws the window's salt, which keys the sample's hash.
	shift atomic.Uint32
	salt  atomic.Uint64

	// win is the two-phase latency histogram of the sampled completions
	// behind the p99 control signal; windowP99 is the last window's, for
	// the window_p99_ns gauge.
	win       telemetry.Window
	windowP99 atomic.Int64

	// Window accumulators, swapped out by each control step. dropCount
	// counts every slot released unrun, expired ones too; expiredCount the
	// deadline sheds among them.
	shedCount    atomic.Int64
	dropCount    atomic.Int64
	expiredCount atomic.Int64

	// windowEnd is the telemetry timestamp at which the next arrival runs a
	// control step; stepMu serialises the step itself.
	windowEnd atomic.Int64
	stepMu    sync.Mutex

	// Control-loop state, guarded by stepMu; credited is the refill's
	// scratch list of tenant states.
	overloadRun int
	healthyRun  int
	credited    []*tenantState

	// def is the implicit state for unclassified traffic (tenant id 0);
	// tenants maps explicit tenant ids copy-on-write, with mu guarding
	// inserts, up to maxTenants, and newest is the last one inserted, tried
	// before the map. Ids past the cap share spill[tier], which joins the
	// credit refill once spillLive[tier] is set. classSeq hands out
	// fair-queue classes round-robin.
	def       tenantState
	spill     [NumTiers]tenantState
	spillLive [NumTiers]atomic.Bool
	tenants   atomic.Pointer[map[uint64]*tenantState]
	newest    atomic.Pointer[tenantState]
	mu        sync.Mutex
	classSeq  atomic.Uint32

	gauges *telemetry.GaugeHandle
}

// NewController builds a controller and registers its gauges
// (limit_current, brownout_level, overload_inflight, window_p99_ns). Call
// Close to unregister them.
func NewController(cfg Config) *Controller {
	c := &Controller{cfg: cfg.withDefaults()}
	c.limit.Store(int64(c.cfg.MaxLimit))
	c.def = tenantState{tier: Tier1}
	c.def.credit.Store(int64(c.cfg.MaxLimit))
	// Each spill state has a fixed fair-queue lane, counted down from the
	// top; registered tenants are dealt lanes round-robin and may share it.
	for t := range c.spill {
		s := &c.spill[t]
		s.tier, s.class = Tier(t), uint8(sched.MaxTenantClasses-1-t)
		s.credit.Store(int64(c.cfg.MaxLimit))
	}
	c.tenants.Store(&map[uint64]*tenantState{})
	c.salt.Store(rand.Uint64())
	c.windowEnd.Store(telemetry.Now() + int64(c.cfg.Window))
	c.gauges = telemetry.Default.RegisterGauges("overload", map[string]func() int64{
		"limit_current":     c.limit.Load,
		"brownout_level":    func() int64 { return int64(c.level.Load()) },
		"overload_inflight": c.Inflight,
		"window_p99_ns":     c.windowP99.Load,
	})
	return c
}

// Close unregisters the controller's gauges. The controller owns no
// goroutines; in-flight accounting keeps working after Close.
func (c *Controller) Close() {
	if c.gauges != nil {
		c.gauges.Unregister()
		c.gauges = nil
	}
}

// Limit returns the current AIMD in-flight limit.
func (c *Controller) Limit() int { return int(c.limit.Load()) }

// Inflight returns the admitted-but-not-completed count.
func (c *Controller) Inflight() int64 { return int64(uint32(c.flow.Load())) }

// Counts returns the current control window's accumulators since the last
// control step: completions (Done and Completed alike — every completion,
// not the samples among them), slots released without running (Dropped and
// Expired) and admission sheds.
func (c *Controller) Counts() (done, dropped, shed int64) {
	return c.flow.Load() >> 32, c.dropCount.Load(), c.shedCount.Load()
}

// Level returns the current brown-out ladder level (0..3).
func (c *Controller) Level() int { return int(c.level.Load()) }

// RetryAfter suggests how long a shed client should back off before
// retrying: one control window at level 0, doubling per brown-out level, so
// the hint scales with how far the server is into the ladder. Carried to
// the client in the GIOP retry-after service context.
func (c *Controller) RetryAfter() time.Duration {
	return c.cfg.Window << c.level.Load()
}

// state resolves a tenant's accounting: id 0 is the implicit default, the
// newest registered tenant costs one compare, and any other goes to register.
// Resolving is also what enrols a tenant in the next step's credit refill.
func (c *Controller) state(id uint64, tier Tier) *tenantState {
	if id == 0 {
		return &c.def
	}
	if ts := c.newest.Load(); ts != nil && ts.id == id {
		return ts
	}
	return c.register(id, tier, false)
}

// register finds id in the copy-on-write map or, re-entered holding mu, looks
// again and inserts it as the newest tenant, up to maxTenants; later unseen ids
// share their tier's spill state, lock- and allocation-free. It is kept out of
// state so that a hit on the newest entry runs in a small frame.
func (c *Controller) register(id uint64, tier Tier, locked bool) *tenantState {
	m := *c.tenants.Load()
	if ts, ok := m[id]; ok {
		return ts
	}
	if len(m) >= maxTenants {
		return c.spilled(tier)
	}
	if !locked {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.register(id, tier, true)
	}
	ts := &tenantState{id: id, tier: tier}
	// Classes 1..MaxTenantClasses-1 are dealt round-robin to explicit
	// tenants (class 0 is the unclassified default); colliding tenants
	// share a fair-queue lane, which degrades fairness between them but
	// never against other lanes.
	ts.class = uint8(1 + c.classSeq.Add(1)%uint32(sched.MaxTenantClasses-1))
	ts.credit.Store(int64(c.cfg.MaxLimit))
	grown := maps.Clone(m)
	grown[id] = ts
	c.tenants.Store(&grown)
	c.newest.Store(ts)
	return ts
}

// spilled returns tier's spill state, marking it live so the next control
// step deals it a share of the refill.
func (c *Controller) spilled(tier Tier) *tenantState {
	if !c.spillLive[tier].Load() {
		c.spillLive[tier].Store(true)
	}
	return &c.spill[tier]
}

// congested reports whether in-flight work has reached three quarters of
// the limit — the LevelShedLowest trigger for priority- and tier-based
// shedding ahead of the hard limit.
func (c *Controller) congested() bool {
	return c.Inflight()*4 >= c.limit.Load()*3
}

// Admit decides one request's fate before any demarshalling or queueing.
// A sampled arrival (see the package comment) reads the clock once: that
// timestamp is the admitted request's Decision.At, and once the control
// window has elapsed it steps the controller first, so the arrival is judged
// by the fresh limit and ladder level. Any other arrival reads no clock and
// gets At 0. The fast path — unclassified tenant, ladder at LevelNormal,
// under the limit — is one atomic add, no allocation and, while sampling one
// in 2^k, a hash of plain loads. A false decision is already fully
// accounted; the caller just rejects the request.
//
// The sample is an arrival whose window index, hashed under the window's salt,
// has its top k bits zero. The index (arrivals) moves by exactly one per admit
// or shed and not at all on a settle, so a periodic stream cannot alias with
// the sample, a fresh salt per step samples fresh positions, and a run replays
// for given salts. Concurrent arrivals that read the same index decide alike.
func (c *Controller) Admit(id uint64, tier Tier, prio sched.Priority) Decision {
	var now int64
	if k := c.shift.Load(); k == 0 || telemetry.Mix(c.salt.Load(), c.arrivals())>>(64-k) == 0 {
		now = telemetry.Now()
		// The CAS on windowEnd elects one arrival to step; everyone else
		// proceeds.
		if end := c.windowEnd.Load(); now >= end && c.windowEnd.CompareAndSwap(end, now+int64(c.cfg.Window)) {
			c.step()
		}
	}
	tier = tier.Clamp()
	if lvl := c.level.Load(); lvl != LevelNormal {
		switch {
		case lvl >= LevelRejectByTier && tier != Tier0:
			return c.shed(id, tier)
		case lvl >= LevelRejectBestEffort && tier == TierBestEffort:
			return c.shed(id, tier)
		case lvl >= LevelShedLowest && c.congested():
			if tier == TierBestEffort || (tier != Tier0 && prio < shedPrioBelow) {
				return c.shed(id, tier)
			}
		}
	}
	n := int64(uint32(c.flow.Add(1)))
	lim := c.limit.Load()
	if n <= lim {
		return Decision{OK: true, Class: c.state(id, tier).class, At: now}
	}
	// Over the limit: the headroom is contested. A hard cap bounds how far
	// in-flight work may overshoot; inside it, admission spends the
	// tenant's weighted credit for this window.
	if n > lim+lim/4 {
		c.flow.Add(-1)
		return c.shed(id, tier)
	}
	ts := c.state(id, tier)
	if ts.credit.Add(-1) >= 0 {
		return Decision{OK: true, Class: ts.class, At: now}
	}
	c.flow.Add(-1)
	return c.shed(id, tier)
}

// arrivals is the window index: completed + in flight + dropped + shed.
func (c *Controller) arrivals() uint64 {
	f := c.flow.Load()
	return uint64(f>>32 + int64(uint32(f)) + c.dropCount.Load() + c.shedCount.Load())
}

// shed accounts one rejected request.
func (c *Controller) shed(id uint64, tier Tier) Decision {
	admissionShedTotal.Inc()
	admissionShedTier[tier].Inc()
	c.shedCount.Add(1)
	return Decision{}
}

// Done settles a sampled completion: it releases the request's in-flight
// slot, counts the completion and records its latency (Decision.At to
// finish, in nanoseconds) — the control signal for the AIMD limit. It reads
// no clock and never steps.
func (c *Controller) Done(latency int64) {
	c.Completed()
	c.win.Record(latency)
}

// Completed settles a completion that was not sampled (Decision.At 0): it
// releases the slot and counts the completion, which the ladder and the
// credit refill need, without a latency. It reads no clock and never steps.
func (c *Controller) Completed() { c.flow.Add(1<<32 - 1) }

// Dropped releases an admitted request's in-flight slot without recording a
// latency sample: work that was rejected downstream, shed at dequeue, or
// failed by a breaker is not a latency signal, and feeding it to the
// controller would drive the limit to its floor on rejection bursts.
func (c *Controller) Dropped() {
	c.flow.Add(-1)
	c.dropCount.Add(1)
}

// Expired releases the slot of an admitted request shed unrun because its
// queueing deadline passed. Like Dropped it records no latency; unlike it,
// it counts toward this controller's deadline-shed burst, which cuts the
// limit however fast the requests that do run complete.
func (c *Controller) Expired() {
	c.Dropped()
	c.expiredCount.Add(1)
}

// Tick forces a control step immediately, regardless of the window clock.
// Tests and callers that want an external cadence (a ticker goroutine) use
// it; production servers rely on the steps arrivals run. It returns the
// completions the step read.
func (c *Controller) Tick() int64 {
	c.windowEnd.Store(telemetry.Now() + int64(c.cfg.Window))
	return c.step()
}

// step is one control-loop iteration: read the window's signals, size the
// next window's sample, move the AIMD limit, walk the brown-out ladder,
// refill tenant credits. It returns the window's completions.
func (c *Controller) step() (done int64) {
	c.stepMu.Lock()
	defer c.stepMu.Unlock()

	p99, samples := c.win.Swap()
	c.windowP99.Store(p99)
	done = c.flow.Load() >> 32
	c.flow.Add(-done << 32)
	shed := c.shedCount.Swap(0)
	dropped := c.dropCount.Swap(0)
	expired := c.expiredCount.Swap(0)
	// Every arrival of the closing window ended as a completion, a drop or
	// a shed (or is still in flight): their sum sizes the next sample.
	c.shift.Store(sampleShift(done + dropped + shed))
	c.salt.Store(rand.Uint64())

	// AIMD: additive raise while the window's p99 holds the target,
	// multiplicative cut on breach or a deadline-shed burst. Windows with
	// too few samples move nothing — a rejection burst with no completions
	// is not a latency signal.
	breach := samples >= minSamples && p99 > int64(c.cfg.TargetP99) || expired >= shedBurst
	lim := c.limit.Load()
	switch {
	case breach:
		lim = max(lim*backoffPct/100, int64(c.cfg.MinLimit))
		c.limit.Store(lim)
	case samples >= minSamples:
		lim = min(lim+raiseStep, int64(c.cfg.MaxLimit))
		c.limit.Store(lim)
	}

	// Brown-out ladder: overloaded when the latency signal breached, or when
	// shedding kept pace with completions WHILE the limiter was actually
	// congested. The congestion gate matters for de-escalation: at an
	// elevated level the ladder itself rejects whole tiers, and those
	// rejections show up as sheds — without the gate, rejected tenants that
	// keep retrying would hold `shed >= done` forever and the ladder would
	// never walk back down. Rejections with ample in-flight headroom are
	// policy, not pressure. Escalation needs escalateAfter consecutive
	// overloaded windows, de-escalation deescalateAfter healthy ones — the
	// asymmetry is the hysteresis.
	overloaded := breach || (shed > 0 && shed >= done && c.congested())
	if overloaded {
		c.healthyRun = 0
		c.overloadRun++
		if c.overloadRun >= escalateAfter {
			c.overloadRun = 0
			c.setLevel(c.level.Load() + 1)
		}
	} else {
		c.overloadRun = 0
		c.healthyRun++
		if c.healthyRun >= deescalateAfter {
			c.healthyRun = 0
			c.setLevel(c.level.Load() - 1)
		}
	}

	// Refill credits: the contested headroom refills to (at least) one
	// limit's worth of over-limit admissions per window, dealt to tenants
	// in proportion to their tier weights. A live spill state is one more
	// tenant of its tier.
	refill := max(done, lim)
	c.credited = append(c.credited[:0], &c.def)
	for t := range c.spill {
		if c.spillLive[t].Load() {
			c.credited = append(c.credited, &c.spill[t])
		}
	}
	for _, ts := range *c.tenants.Load() {
		c.credited = append(c.credited, ts)
	}
	var total int64
	for _, ts := range c.credited {
		total += int64(tierWeights[ts.tier])
	}
	for _, ts := range c.credited {
		ts.credit.Store(int64(tierWeights[ts.tier]) * refill / total)
	}
	return done
}

// sampleShift returns the sampling exponent k for a window that follows one
// of n arrivals: 0 (sample all) up to 2*sampleBudget, else the k at which
// n>>k falls in [sampleBudget, 2*sampleBudget).
func sampleShift(n int64) uint32 {
	if n <= 2*sampleBudget {
		return 0
	}
	return uint32(bits.Len64(uint64(n)) - bits.Len64(sampleBudget))
}

// setLevel clamps and applies a ladder transition, recording it.
func (c *Controller) setLevel(lvl int32) {
	lvl = min(max(lvl, LevelNormal), maxLevel)
	old := c.level.Swap(lvl)
	if old == lvl {
		return
	}
	brownoutTransitions.Inc()
	telemetry.Record(telemetry.EvState, brownoutLabel, 0, 0, uint64(lvl))
}
