package core

// Live reconfiguration: the mission-style lifecycle of SCJ Level 2 promoted
// into a first-class operation on a running assembly. An App moves through
// Start → (Drain | Swap | Rewire)* → Stop; a Swap replaces a live child
// component's blueprint and drains the outgoing instance under a bounded
// pause, a Rewire atomically re-points an Out port's destination list, and
// both republish the SMM's route caches with one generation flip — no
// message is dropped and steady-state sends stay allocation-free.
//
// The drain protocol behind Swap reuses the liveness machinery that already
// reclaims transient children:
//
//  1. The blueprint flips under instMu, so deliveries that miss a binding
//     park inside materialize until the swap commits — a bounded sender
//     pause, never a drop.
//  2. The outgoing shell is retired (lifeAuto, lifeRetired: a parked one is
//     dead at once, a live one never parks) and detached: its port bindings
//     lose their owner but keep their handler, so deliveries already
//     buffered drain against the old version while nothing new can reserve
//     it.
//  3. The swap waits — bounded — for a live instance to dispose at
//     quiescence (no pending, no handles), then one routeGen bump
//     republishes every cached route. The next delivery builds the new
//     version through the ordinary resolveIn slow path.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// Phase is an assembly's lifecycle state.
type Phase int32

const (
	// PhaseNew is an assembled but not yet started App.
	PhaseNew Phase = iota
	// PhaseRunning is a started App processing traffic.
	PhaseRunning
	// PhaseDraining is an App waiting for in-flight work to quiesce.
	PhaseDraining
	// PhaseTerminated is a stopped App.
	PhaseTerminated
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseNew:
		return "new"
	case PhaseRunning:
		return "running"
	case PhaseDraining:
		return "draining"
	case PhaseTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("Phase(%d)", int32(p))
	}
}

// DefaultDrainTimeout bounds the wait for quiescence when a SwapOptions or
// Drain timeout is zero.
const DefaultDrainTimeout = time.Second

// Reconfiguration telemetry: every swap's pause lands in the
// reconfig_pause_ns histogram, and the counters attribute each kind of
// live change. Exported at /metrics with the compadres_ prefix.
var (
	reconfigPause = telemetry.NewHistogram("reconfig_pause_ns")
	swapTotal     = telemetry.NewCounter("swap_total")
	rewireTotal   = telemetry.NewCounter("rewire_total")
	drainTotal    = telemetry.NewCounter("drain_total")
)

// Phase returns the App's lifecycle state.
func (a *App) Phase() Phase { return Phase(a.phase.Load()) }

// Drain waits — bounded by timeout (zero selects DefaultDrainTimeout) — for
// the assembly to quiesce: no delivery pending, buffered or in a handler, on
// any component of any top-level subtree. It walks the tree to the first
// busy component, waits for that one to go quiet, and walks again. Drain
// observes; it does not gate new sends — the caller pauses its producers
// (or has removed the assembly from its directory) first, which is what
// keeps in-flight handlers free to send downstream while the level drops.
// A running App reads PhaseDraining while any Drain waits; Drains may
// overlap, and a Stop that lands meanwhile is never undone.
func (a *App) Drain(timeout time.Duration) error {
	if timeout == 0 {
		timeout = DefaultDrainTimeout
	}
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return ErrStopped
	}
	top := make([]*Component, len(a.top))
	copy(top, a.top)
	if a.drainers++; a.drainers == 1 {
		a.phase.CompareAndSwap(int32(PhaseRunning), int32(PhaseDraining))
	}
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		if a.drainers--; a.drainers == 0 {
			a.phase.CompareAndSwap(int32(PhaseDraining), int32(PhaseRunning))
		}
		a.mu.Unlock()
	}()

	start := telemetry.Now()
	deadline := time.Now().Add(timeout)
	for i := 0; i < len(top); {
		b := top[i].firstBusy()
		if b == nil {
			i++
			continue
		}
		if !b.changed.Wait(func() bool { return b.life.Load()&pendingMask == 0 }, deadline) {
			return fmt.Errorf("%w: app %q still busy after %v", ErrDrainTimeout, a.name, timeout)
		}
		i = 0
	}
	drainTotal.Inc()
	telemetry.Record(telemetry.EvDrain, telemetry.Label(a.name), 0, 0, uint64(telemetry.Now()-start))
	return nil
}

// childShells snapshots the SMM's child shells, live or parked.
func (s *SMM) childShells() []*Component {
	s.mu.Lock()
	defer s.mu.Unlock()
	children := make([]*Component, 0, len(s.children))
	for _, c := range s.children {
		children = append(children, c)
	}
	return children
}

// SwapOptions configures SMM.Swap.
type SwapOptions struct {
	// DrainTimeout bounds the pause while the outgoing instance's in-flight
	// messages complete; zero selects DefaultDrainTimeout.
	DrainTimeout time.Duration
}

// SwapStats reports what a Swap did.
type SwapStats struct {
	// PauseNs is the reconfiguration pause: blueprint flip through drain
	// and route republication. Senders resolving the swapped child block at
	// most this long; cached-route sends to other destinations never block.
	PauseNs int64
	// ReplacedLive reports whether a live instance had to be drained (false
	// when the child was dormant: blueprint replaced, nothing to drain).
	ReplacedLive bool
	// Drained is false when the outgoing instance did not quiesce within
	// the drain timeout. The swap is still committed — the old instance is
	// retired and reclaims itself at quiescence — but the pause bound was
	// exceeded, and Swap reports ErrDrainTimeout alongside these stats.
	Drained bool
}

// Swap replaces the named child's blueprint with def — the same name, a new
// version — drains the outgoing live instance, and atomically flips the
// route-cache generation. In-flight messages already buffered for the old
// instance drain against the old version's handlers; deliveries arriving
// during the swap park in the resolution slow path and land on the new
// version — none are dropped. Swap serialises with instantiation and other
// swaps; senders whose routes do not touch the swapped child are never
// paused.
func (s *SMM) Swap(def ChildDef, opts SwapOptions) (SwapStats, error) {
	var st SwapStats
	if err := def.check(); err != nil {
		return st, fmt.Errorf("swap: %w", err)
	}
	if s.stopped.Load() {
		return st, ErrStopped
	}
	timeout := opts.DrainTimeout
	if timeout == 0 {
		timeout = DefaultDrainTimeout
	}
	start := telemetry.Now()

	// instMu makes the blueprint flip atomic against instantiation: a
	// delivery that finds no live binding parks in materialize until the
	// swap commits, then instantiates the new version.
	s.instMu.Lock()
	defer s.instMu.Unlock()

	owner := s.owner
	app := owner.app
	app.mu.Lock()
	if _, known := owner.childDefs[def.Name]; !known {
		app.mu.Unlock()
		return st, fmt.Errorf("%w: swap %q in %q", ErrUnknownChild, def.Name, owner.name)
	}
	d := def
	owner.childDefs[def.Name] = &d
	app.mu.Unlock()

	st.Drained = true
	if old := s.shell(def.Name); old != nil {
		// Retire before detach: the flag keeps an old-version shell from
		// parking or reviving, and once the binding is unbound nothing new
		// can reserve the instance. An already-quiet instance disposes
		// inside retire; a busy one at its final release. Buffered deliveries
		// still dispatch on the old handler (unbind keeps it), so the drain
		// completes old-version work on old-version code.
		st.ReplacedLive = old.retire(0)
		s.detach(old)
		if st.ReplacedLive {
			st.Drained = old.changed.Wait(old.Disposed, time.Now().Add(timeout))
		}
	}

	// One atomic flip republishes every cached route against the rebound
	// port table; the port structures themselves persist across the swap.
	s.mu.Lock()
	s.routeGen.Add(1)
	s.ensureGenGaugeLocked()
	s.mu.Unlock()

	st.PauseNs = telemetry.Now() - start
	reconfigPause.Record(st.PauseNs)
	swapTotal.Inc()
	telemetry.Record(telemetry.EvSwap, telemetry.Label(owner.Path()+"/"+def.Name), 0, 0, uint64(st.PauseNs))
	if !st.Drained {
		return st, fmt.Errorf("%w: swap %q waited %v, old instance still busy (held handles or stuck work)",
			ErrDrainTimeout, def.Name, timeout)
	}
	return st, nil
}

// Rewire atomically replaces the destination list of a registered Out port
// (qualified "Component.Port" or unambiguous short name) and flips the
// route-cache generation. Illegal rewires — unknown port, unqualified
// destination, or a destination whose registered In port carries a
// different message type — are rejected before anything changes. Rewiring
// to the current list is a no-op and does not bump the generation (the PR 6
// re-registration invariant).
func (s *SMM) Rewire(portName string, dests []string) error {
	if s.stopped.Load() {
		return ErrStopped
	}
	p, err := s.GetOutPort(portName)
	if err != nil {
		return err
	}
	s.mu.Lock()
	for _, dst := range dests {
		if _, _, ok := strings.Cut(dst, "."); !ok {
			s.mu.Unlock()
			return fmt.Errorf("%w: rewire %q: destination %q is not a qualified name", ErrBadName, p.qname, dst)
		}
		if in := s.in[dst]; in != nil && in.typ.Name != p.typ.Name {
			s.mu.Unlock()
			return fmt.Errorf("%w: rewire %q (%q) to %q (%q)",
				ErrTypeMismatch, p.qname, p.typ.Name, dst, in.typ.Name)
		}
	}
	if destsEqual(p.Dests(), dests) {
		s.mu.Unlock()
		return nil
	}
	cp := make([]string, len(dests))
	copy(cp, dests)
	p.setDests(cp)
	s.routeGen.Add(1) // same critical section as setDests; see registerOut
	s.ensureGenGaugeLocked()
	s.mu.Unlock()

	rewireTotal.Inc()
	telemetry.Record(telemetry.EvRewire, p.label, 0, 0, uint64(len(dests)))
	return nil
}

// RouteGeneration returns the SMM's route-cache generation — a monotonic
// counter that bumps exactly when the destination graph changes.
func (s *SMM) RouteGeneration() uint64 { return s.routeGen.Load() }

// ensureGenGaugeLocked registers the route_generation gauge once this SMM
// has been live-reconfigured. Called with s.mu held.
func (s *SMM) ensureGenGaugeLocked() {
	if s.genGauge != nil || s.stopped.Load() {
		return
	}
	gen := &s.routeGen
	s.genGauge = telemetry.Default.RegisterGauge("route_generation", s.owner.Path(),
		func() int64 { return int64(gen.Load()) })
}
