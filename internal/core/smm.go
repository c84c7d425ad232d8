package core

import (
	"encoding"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Mechanism selects how an SMM passes messages across scoped regions. The
// paper (§2.2) identifies three options and adopts the shared object as the
// most efficient; all three are implemented so the trade-off is measurable.
type Mechanism int

// Cross-scope message passing mechanisms.
const (
	// MechanismSharedObject pools messages in the SMM owner's area, which
	// both sender and receiver may legally reference. The default.
	MechanismSharedObject Mechanism = iota + 1
	// MechanismSerialization marshals the message to bytes and rebuilds a
	// copy for every receiver; the original returns to its pool at send
	// time. Messages must implement encoding.BinaryMarshaler/Unmarshaler.
	MechanismSerialization
	// MechanismHandoff runs the handler synchronously on the sending
	// thread, which walks through the common-ancestor area into the
	// receiver's area (the handoff pattern). Requires OutPort.SendFrom.
	MechanismHandoff
)

// String returns the mechanism name.
func (m Mechanism) String() string {
	switch m {
	case MechanismSharedObject:
		return "shared-object"
	case MechanismSerialization:
		return "serialization"
	case MechanismHandoff:
		return "handoff"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// SMM is a Scoped Memory Manager: one per parent component, mediating all
// communication between the parent and its children and among the children.
// It owns the message pools (one per message type) and the In-port buffers,
// all charged to the parent's memory area; it maintains a proxy per child
// definition and instantiates child components on demand.
//
// The steady-state send path is lock-free with respect to the SMM: the
// mechanism and stop flag are atomics, and each OutPort caches its resolved
// destination In-ports (see routesFor), invalidated by a generation counter
// that port registration bumps. The SMM mutex is only taken to mutate the
// port/child/pool tables or on the cold resolution path.
type SMM struct {
	owner *Component
	area  *memory.Area

	// instMu serialises building a child's shell and swapping its blueprint;
	// it is taken before mu and never while holding mu. Reviving and
	// parking an existing shell take neither.
	instMu sync.Mutex

	mu       sync.Mutex
	in       map[string]*InPort
	out      map[string]*OutPort
	children map[string]*Component // each name's current shell: live, or a parked Reusable one
	msgPools map[string]*msgPool
	shared   *sched.Pool
	pools    []*sched.Pool // all pools owned by this SMM, for shutdown

	mechanism atomic.Int32
	stopped   atomic.Bool
	routeGen  atomic.Uint64 // bumped under mu on registerIn/registerOut/Rewire/Swap

	// genGauge exports routeGen once this SMM has been live-reconfigured;
	// registered lazily (under mu) so steady assemblies pay nothing.
	genGauge *telemetry.GaugeHandle
}

func newSMM(owner *Component) *SMM {
	s := &SMM{
		owner:    owner,
		area:     owner.area,
		in:       make(map[string]*InPort),
		out:      make(map[string]*OutPort),
		children: make(map[string]*Component),
		msgPools: make(map[string]*msgPool),
	}
	s.mechanism.Store(int32(MechanismSharedObject))
	return s
}

// Owner returns the parent component this SMM belongs to.
func (s *SMM) Owner() *Component { return s.owner }

// Mechanism returns the configured cross-scope mechanism.
func (s *SMM) Mechanism() Mechanism {
	return Mechanism(s.mechanism.Load())
}

// SetMechanism selects the cross-scope mechanism for subsequent sends.
func (s *SMM) SetMechanism(m Mechanism) {
	s.mechanism.Store(int32(m))
}

// GetOutPort looks an Out port up by qualified name ("Component.Port") or,
// when unambiguous, by short port name — the paper's smm.getOutPort().
func (s *SMM) GetOutPort(name string) (*OutPort, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.out[name]; ok {
		return p, nil
	}
	var found *OutPort
	for _, p := range s.out {
		if p.short == name {
			if found != nil {
				return nil, fmt.Errorf("%w: out port %q is ambiguous", ErrUnknownPort, name)
			}
			found = p
		}
	}
	if found == nil {
		return nil, fmt.Errorf("%w: out port %q", ErrUnknownPort, name)
	}
	return found, nil
}

// Child returns the live instance of the named child, or nil.
func (s *SMM) Child(name string) *Component {
	if c := s.shell(name); c != nil && !c.Disposed() {
		return c
	}
	return nil
}

// checkMediation verifies that this SMM may mediate ports of component c:
// the SMM's owner must be c itself or an ancestor of c (registering with a
// non-immediate ancestor is precisely the paper's shadow port). As a special
// case, any immortal component's SMM may mediate another immortal
// component's ports, since both live in the same immortal area and the
// assignment rules are trivially satisfied.
func (s *SMM) checkMediation(c *Component) error {
	for cc := c; cc != nil; cc = cc.parent {
		if cc == s.owner {
			return nil
		}
	}
	if s.area.Kind() == memory.KindImmortal && c.area.Kind() == memory.KindImmortal {
		return nil
	}
	return fmt.Errorf("core: SMM of %q cannot mediate ports of non-descendant %q", s.owner.name, c.name)
}

// registerIn adds (or rebinds) an In port of component c.
func (s *SMM) registerIn(c *Component, cfg InPortConfig) (*InPort, error) {
	if err := checkName(cfg.Name); err != nil {
		return nil, err
	}
	if !cfg.Type.valid() {
		return nil, fmt.Errorf("core: in port %q: invalid message type", cfg.Name)
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("core: in port %q: nil handler", cfg.Name)
	}
	if err := s.checkMediation(c); err != nil {
		return nil, err
	}
	qname := c.name + "." + cfg.Name

	s.mu.Lock()
	if existing, ok := s.in[qname]; ok {
		// Re-instantiation of a transient child: the port structure
		// (buffer, pools) persists in the SMM; only the binding changes.
		if existing.typ.Name != cfg.Type.Name {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: port %q re-registered as %q, was %q",
				ErrTypeMismatch, qname, cfg.Type.Name, existing.typ.Name)
		}
		s.mu.Unlock()
		existing.bind(c, cfg.Handler)
		return existing, nil
	}
	s.mu.Unlock()

	bufSize := cfg.BufferSize
	if bufSize == 0 {
		bufSize = DefaultBufferSize
	}
	if bufSize < 0 {
		return nil, fmt.Errorf("core: in port %q: negative buffer size", qname)
	}
	threading := cfg.Threading
	if threading == 0 {
		threading = ThreadingShared
	}
	minT, maxT := cfg.MinThreads, cfg.MaxThreads
	if minT == 0 {
		minT = 1
	}
	if maxT == 0 {
		maxT = 4
	}

	// Charge the port header and (a synchronous port has none) buffer slots
	// to the SMM's area and make sure the message pool for the type exists.
	bytes := portHeaderBytes
	if threading != ThreadingSynchronous {
		bytes += bufSize * bufferSlotBytes
	}
	if err := s.charge(bytes); err != nil {
		return nil, fmt.Errorf("in port %q: %w", qname, err)
	}
	if _, err := s.ensurePool(cfg.Type); err != nil {
		return nil, err
	}

	cfg.BufferSize, cfg.Threading = bufSize, threading
	p := newInPort(qname, cfg)
	p.bind(c, cfg.Handler)

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.in[qname]; dup {
		return nil, fmt.Errorf("%w: in port %q", ErrDuplicateName, qname)
	}
	switch threading {
	case ThreadingShared:
		if s.shared == nil {
			s.shared = sched.NewPool(sched.PoolConfig{
				Name: s.owner.name + ".shared", Min: minT, Max: maxT,
			})
			s.pools = append(s.pools, s.shared)
		}
		p.pool = s.shared
	case ThreadingDedicated:
		p.pool = sched.NewPool(sched.PoolConfig{Name: qname, Min: minT, Max: maxT})
		s.pools = append(s.pools, p.pool)
	case ThreadingSynchronous:
		// No pool, no dispatch: SMM.deliver on the sender's thread is the whole port.
	default:
		return nil, fmt.Errorf("core: in port %q: unknown threading policy %v", qname, threading)
	}
	if p.pool != nil {
		// The dispatch closure is created once per port, so the per-message
		// Submit passes a preexisting function value instead of allocating.
		p.dispatchFn = func(prio sched.Priority) { s.dispatch(p, prio) }
	}
	s.in[qname] = p
	s.routeGen.Add(1) // a new In port may resolve a previously dangling route
	received := p.received.Load
	if p.synchronous {
		received = p.processed.Load // a call is received as it is processed
	}
	p.gauges = telemetry.Default.RegisterGauges(qname, map[string]func() int64{
		"port_received":  received,
		"port_processed": p.processed.Load,
		"port_dropped":   p.dropped.Load,
		"port_queue_max": p.depthMax.Load,
	})
	return p, nil
}

// destsEqual reports whether two destination lists are identical, in order.
func destsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// registerOut adds (or rebinds) an Out port of component c.
func (s *SMM) registerOut(c *Component, cfg OutPortConfig) (*OutPort, error) {
	if err := checkName(cfg.Name); err != nil {
		return nil, err
	}
	if !cfg.Type.valid() {
		return nil, fmt.Errorf("core: out port %q: invalid message type", cfg.Name)
	}
	if err := s.checkMediation(c); err != nil {
		return nil, err
	}
	qname := c.name + "." + cfg.Name

	s.mu.Lock()
	if existing, ok := s.out[qname]; ok {
		if existing.typ.Name != cfg.Type.Name {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: port %q re-registered as %q, was %q",
				ErrTypeMismatch, qname, cfg.Type.Name, existing.typ.Name)
		}
		if destsEqual(existing.Dests(), cfg.Dests) {
			// A pooled component re-registering the same wiring (the common
			// per-request re-instantiation) changes no routes: keep the
			// current destination list and, crucially, do not bump routeGen —
			// every OutPort's cached route stays valid, so steady-state sends
			// skip the rebuild (SMM lock plus map walks) entirely.
			s.mu.Unlock()
			return existing, nil
		}
		dests := make([]string, len(cfg.Dests))
		copy(dests, cfg.Dests)
		existing.setDests(dests)
		// The bump must land inside the same critical section as setDests:
		// buildRoutes snapshots (generation, dests, In table) under mu, so a
		// bump outside the lock would let a racing builder resurrect the
		// just-invalidated cache under the still-current generation and route
		// sends to the old destinations until the bump finally lands.
		s.routeGen.Add(1)
		s.mu.Unlock()
		return existing, nil
	}
	s.mu.Unlock()

	dests := make([]string, len(cfg.Dests))
	copy(dests, cfg.Dests)

	if err := s.charge(portHeaderBytes); err != nil {
		return nil, fmt.Errorf("out port %q: %w", qname, err)
	}
	pool, err := s.ensurePool(cfg.Type)
	if err != nil {
		return nil, err
	}

	p := &OutPort{qname: qname, short: cfg.Name, typ: cfg.Type, smm: s, pool: pool}
	p.label = telemetry.Label(qname)
	p.setDests(dests)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.out[qname]; dup {
		return nil, fmt.Errorf("%w: out port %q", ErrDuplicateName, qname)
	}
	s.out[qname] = p
	s.routeGen.Add(1)
	p.gauges = telemetry.Default.RegisterGauge("port_sent", qname, p.sent.Load)
	return p, nil
}

// charge allocates n bookkeeping bytes in the SMM's area.
func (s *SMM) charge(n int) error {
	return s.owner.Exec(func(ctx *memory.Context) error {
		_, err := ctx.Alloc(n)
		return err
	})
}

// ensurePool returns the message pool for typ, creating and charging it on
// first use.
func (s *SMM) ensurePool(typ MessageType) (*msgPool, error) {
	s.mu.Lock()
	if p, ok := s.msgPools[typ.Name]; ok {
		s.mu.Unlock()
		return p, nil
	}
	s.mu.Unlock()

	var p *msgPool
	err := s.owner.Exec(func(ctx *memory.Context) error {
		var perr error
		p, perr = newMsgPool(typ, s.area, ctx, s.owner.app.msgCap)
		return perr
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.msgPools[typ.Name]; ok {
		return existing, nil
	}
	s.msgPools[typ.Name] = p
	p.gauges = telemetry.Default.RegisterGauges(s.owner.name+"/"+typ.Name, map[string]func() int64{
		"msgpool_in_flight_max": p.inFlightMax.Load,
	})
	return p, nil
}

// Connect instantiates (or finds) the named child and returns a Handle that
// keeps it alive until Disconnect — the paper's connect()/disconnect() with
// a handle, implemented with a wedge on the child's scope.
func (s *SMM) Connect(name string) (*Handle, error) {
	child, err := s.materialize(name)
	if err != nil {
		return nil, err
	}
	// The pending message materialize reserved becomes the handle.
	child.life.Add(handleOne - pendingOne)
	child.changed.Notify()
	h := &Handle{child: child}
	if s.stopped.Load() {
		// Stop no longer counts handles and may have passed this one by.
		h.Disconnect()
		return nil, ErrStopped
	}
	return h, nil
}

// Handle keeps a child component instance alive.
type Handle struct {
	child    *Component
	released atomic.Bool
}

// Component returns the pinned child instance.
func (h *Handle) Component() *Component { return h.child }

// AwaitIdle waits — until deadline, the zero time for no bound — for handles
// to be all that keeps the instance alive: no message pending on it and none
// of its children live. It reports whether that happened. An instance
// reclaimed by the goroutine that made it idle tears its SMM's pools down
// from one of their own workers; a holder that awaits idleness before it
// disconnects reclaims the instance itself.
func (h *Handle) AwaitIdle(deadline time.Time) bool {
	c := h.child
	return c.changed.Wait(func() bool { return c.life.Load()&(countMask&^handleMask) == 0 }, deadline)
}

// Disconnect releases the handle. When it was the last thing keeping a
// quiescent child alive, the child is reclaimed. Disconnect is idempotent.
func (h *Handle) Disconnect() {
	if h.released.Swap(true) {
		return
	}
	c := h.child
	for {
		w := c.life.Load()
		// A disconnect is an explicit kill request: even persistent children
		// become eligible for reclamation once quiescent. No handle left in
		// the word means Stop already took this one.
		if w&handleMask == 0 || c.tryRelease(w, handleOne, lifeAuto) {
			return
		}
	}
}

// materialize returns the named child's instance with one pending message
// already reserved on it, reviving its parked shell or building a fresh one
// as needed. It never holds a lock across user code: a revival's start
// function runs inside reserve, before instMu is taken, and a fresh build's
// after it is dropped, so either may send to siblings whose instantiation
// needs the same lock; deliveries racing in meanwhile park in waitStarted.
func (s *SMM) materialize(name string) (*Component, error) {
	for {
		if s.stopped.Load() {
			return nil, ErrStopped
		}
		c := s.shell(name)
		if c != nil {
			if _, err := c.reserve(false); err != errGone {
				if err != nil {
					return nil, err
				}
				return c, nil
			}
		}
		// No shell, or one disposed for good: build its successor, unless
		// another builder got there first or a Stop disposed of it.
		s.instMu.Lock()
		if s.shell(name) != c || s.stopped.Load() {
			s.instMu.Unlock()
			continue
		}
		def := s.owner.childDef(name)
		if def == nil {
			s.instMu.Unlock()
			return nil, fmt.Errorf("%w: %q in %q", ErrUnknownChild, name, s.owner.name)
		}
		child, err := s.build(def)
		s.instMu.Unlock()
		if err == nil {
			err = child.start()
		}
		if err != nil {
			return nil, err
		}
		return child, nil
	}
}

// shell returns the named child's current shell in whatever state, or nil.
func (s *SMM) shell(name string) *Component {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.children[name]
}

// build constructs a child's shell from its blueprint — open its area, run
// Setup — and exposes it, live with the caller's message pending. Runs under
// instMu; the caller runs the start function afterwards.
func (s *SMM) build(def *ChildDef) (*Component, error) {
	child := &Component{
		app:    s.owner.app,
		name:   def.Name,
		parent: s.owner,
		level:  s.owner.level + 1,
		mgr:    s,
		def:    def,
	}
	life := pendingOne
	if !def.Persistent {
		life |= lifeAuto
	}
	if !def.Reusable {
		life |= lifeRetired
	}
	child.life.Store(life)
	if err := child.open(); err != nil {
		return nil, err
	}
	if err := def.Setup(child); err != nil {
		child.life.Store(lifeDisposed | lifeRetired)
		s.detach(child) // whatever ports Setup got as far as binding
		child.wedge.Release()
		s.owner.release(childOne, 0)
		return nil, fmt.Errorf("child %q setup: %w", def.Name, err)
	}
	s.mu.Lock()
	s.children[def.Name] = child
	s.mu.Unlock()
	return child, nil
}

// detach unbinds a disposed child's In ports and forgets the instance. The
// port structures stay registered so a future instantiation reuses them.
func (s *SMM) detach(c *Component) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.children[c.name] == c {
		delete(s.children, c.name)
	}
	for _, p := range s.in {
		p.unbind(c)
	}
}

// resolveIn returns the In port for a qualified destination name and its
// owner with one pending message reserved — instantiating the owning child
// if needed. This is the proxy behaviour of §2.2: "the SMM checks the
// proxies for the existing component or, if none are found, creates a new
// scoped memory component which should receive the message".
func (s *SMM) resolveIn(qname string) (*InPort, *Component, error) {
	compName, _, ok := strings.Cut(qname, ".")
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q is not a qualified name", ErrUnknownPort, qname)
	}
	p := s.inPort(qname)
	if p != nil {
		if owner, _ := p.binding(); owner != nil {
			if _, err := owner.reserve(false); err == nil {
				return p, owner, nil
			}
		}
	}
	if compName == s.owner.name {
		if p == nil {
			return nil, nil, fmt.Errorf("%w: %q", ErrUnknownPort, qname)
		}
		// The owner itself is never transient; a nil binding here means
		// the app is stopping.
		return nil, nil, ErrStopped
	}
	// The reservation is made inside materialize, so no quiesce can win the
	// instance back before the message is queued; a swap that retires it
	// from here on finds it busy and drains this delivery on the old version.
	owner, err := s.materialize(compName)
	if err != nil {
		return nil, nil, fmt.Errorf("deliver to %q: %w", qname, err)
	}
	if p = s.inPort(qname); p == nil {
		owner.release(pendingOne, 0)
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownPort, qname)
	}
	return p, owner, nil
}

// inPort looks a registered In port up by qualified name.
func (s *SMM) inPort(qname string) *InPort {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.in[qname]
}

// routeSet is one OutPort's cached resolution of destination names to In
// ports; it stays valid while gen matches the SMM's routeGen.
type routeSet struct {
	gen    uint64
	routes []route
}

// route is one cached destination. in is nil when the port was not yet
// registered at build time (the owning child has never been instantiated);
// such routes resolve through the slow path until a registration bumps the
// generation.
type route struct {
	in   *InPort
	dest string
}

// routesFor returns p's cached route set, rebuilding it when port
// registration has invalidated it. In the steady state this is one atomic
// load and a generation compare — no SMM lock, no map lookups, no string
// work per message.
func (s *SMM) routesFor(p *OutPort) *routeSet {
	gen := s.routeGen.Load()
	if rs := p.routes.Load(); rs != nil && rs.gen == gen {
		return rs
	}
	return s.buildRoutes(p)
}

// buildRoutes resolves p's destination names against the In-port table. The
// generation, the destination list, and the table are snapshotted in one mu
// critical section — every route-flipping writer commits its change and its
// bump inside that same lock, so a built set is always consistent with the
// generation it carries. The publish is a CAS that never replaces a
// newer-generation set: a builder descheduled across a route flip would
// otherwise clobber the fresh cache with a stale one, un-invalidating it for
// every sender until the next flip.
func (s *SMM) buildRoutes(p *OutPort) *routeSet {
	s.mu.Lock()
	gen := s.routeGen.Load()
	dests := p.Dests()
	rs := &routeSet{gen: gen, routes: make([]route, len(dests))}
	for i, d := range dests {
		rs.routes[i] = route{in: s.in[d], dest: d}
	}
	s.mu.Unlock()
	for {
		cur := p.routes.Load()
		if cur != nil && cur.gen > rs.gen {
			// A racing builder published a newer resolution; keep it. The
			// stale set is still internally consistent, so this dispatch may
			// use it — its sends land on ports that were current when the
			// snapshot was taken, exactly as if the send had happened then.
			return rs
		}
		if p.routes.CompareAndSwap(cur, rs) {
			return rs
		}
	}
}

// send routes one message per the SMM's configured mechanism; proc is nil
// unless the sender supplied its execution context (SendFrom). Whatever it
// returns, the message is the framework's: a send refused before any receiver
// was tried recycles it as one that a receiver failed does.
func (s *SMM) send(p *OutPort, proc *Proc, msg Message, prio sched.Priority) error {
	if s.stopped.Load() {
		return p.refuse(msg, ErrStopped)
	}
	mech := Mechanism(s.mechanism.Load())
	rs := s.routesFor(p)
	if len(rs.routes) == 0 {
		return p.refuse(msg, fmt.Errorf("%w: out port %q has no destinations", ErrUnknownPort, p.qname))
	}

	var err error
	switch mech {
	case MechanismSharedObject, MechanismHandoff:
		// Handoff is the shared object with every receiver called, whatever
		// its port's threading, on the caller's scope stack.
		if mech == MechanismHandoff && proc == nil {
			return p.refuse(msg, fmt.Errorf("%w: out port %q", ErrNeedsCallerContext, p.qname))
		}
		err = s.sendShared(p, proc, msg, prio, rs, mech == MechanismHandoff)
	case MechanismSerialization:
		err = s.sendSerialized(p, proc, msg, prio, rs)
	default:
		err = p.refuse(msg, fmt.Errorf("core: unknown mechanism %v", mech))
	}
	if err == nil {
		p.sent.Add(1)
		telemetry.RecordVerbose(telemetry.EvSend, p.label, 0, 0, uint64(prio))
	}
	return err
}

// sendShared implements the shared-object mechanism: the pooled message
// itself goes to every receiver and returns to the pool after the last one
// has processed it. Only a send that fans out takes an envelope up front;
// a lone receiver that buffers takes one in sendTo.
func (s *SMM) sendShared(p *OutPort, proc *Proc, msg Message, prio sched.Priority, rs *routeSet, handoff bool) error {
	var env *envelope
	if len(rs.routes) > 1 {
		env = newEnvelope(msg, p.pool, len(rs.routes))
	}
	var firstErr error
	for i := range rs.routes {
		if err := s.sendTo(p, &rs.routes[i], env, proc, msg, prio, handoff); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// sendSerialized implements the serialization mechanism: the message is
// encoded once, returned to its pool immediately, and an independent copy
// is rebuilt for every receiver, on an envelope of its own with no pool, so
// it is dropped once that receiver is done.
func (s *SMM) sendSerialized(p *OutPort, proc *Proc, msg Message, prio sched.Priority, rs *routeSet) error {
	bm, ok := msg.(encoding.BinaryMarshaler)
	if !ok {
		return p.refuse(msg, fmt.Errorf("%w: %q", ErrNotSerializable, p.typ.Name))
	}
	data, err := bm.MarshalBinary()
	p.pool.put(msg)
	if err != nil {
		return fmt.Errorf("serialize %q: %w", p.typ.Name, err)
	}

	var firstErr error
	for i := range rs.routes {
		fresh := p.typ.New()
		um, ok := fresh.(encoding.BinaryUnmarshaler)
		if !ok {
			return fmt.Errorf("%w: %q", ErrNotSerializable, p.typ.Name)
		}
		if err := um.UnmarshalBinary(data); err != nil {
			return fmt.Errorf("deserialize %q: %w", p.typ.Name, err)
		}
		if err := s.sendTo(p, &rs.routes[i], newEnvelope(fresh, nil, 1), proc, fresh, prio, false); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// sendTo hands msg to the receiver of one route. A receiver behind a
// synchronous port — every receiver under handoff — is called on the spot:
// deliver on the sender's thread, which holds the owner reserved until the
// message is settled and runs the handler on the call frame its reservation
// claimed, if any. Any other receiver gets the message in its buffer, on
// env, or, env being nil, on an envelope of its own.
func (s *SMM) sendTo(p *OutPort, r *route, env *envelope, proc *Proc, msg Message, prio sched.Priority, handoff bool) error {
	in, owner, frame, err := s.receiver(p, r, handoff)
	switch {
	case err != nil:
		settle(env, p.pool, msg)
	case in.synchronous || handoff:
		if !in.synchronous {
			in.received.Add(1) // a buffered port counts arrivals under handoff too
		}
		s.deliver(in, owner, frame, proc, msg, prio.Clamp())
		settle(env, p.pool, msg)
		owner.release(pendingOne|frame, 0)
	default:
		if env == nil {
			env = newEnvelope(msg, p.pool, 1)
		}
		err = s.enqueue(in, owner, env, msg, prio)
	}
	return err
}

// settle records one receiver finished with msg: on its envelope, or, the
// send's one receiver being a call, straight back into the pool.
func settle(env *envelope, pool *msgPool, msg Message) {
	if env != nil {
		env.done()
	} else {
		pool.put(msg)
	}
}

// receiver resolves one of p's routes to its In port and that port's owner,
// with one pending message reserved on the owner. The cached route finds
// the port without touching the SMM, and reserving through its binding
// revives a parked owner on the spot — and, for a call (a synchronous port,
// or any port under handoff), claims one of the owner's call frames; the
// slow path (unregistered port, never-instantiated or replaced owner) falls
// back to resolveIn, which materializes the owning child and claims none. A
// port of another message type is refused with the reservation released.
func (s *SMM) receiver(p *OutPort, r *route, handoff bool) (*InPort, *Component, uint64, error) {
	in := r.in
	var owner *Component
	var frame uint64
	if in != nil {
		if o, _ := in.binding(); o != nil {
			if f, err := o.reserve(in.synchronous || handoff); err == nil {
				owner, frame = o, f
			}
		}
	}
	if owner == nil {
		var err error
		if in, owner, err = s.resolveIn(r.dest); err != nil {
			return nil, nil, 0, err
		}
	}
	if in.typ.Name != p.typ.Name {
		owner.release(pendingOne|frame, 0)
		return nil, nil, 0, fmt.Errorf("%w: %q sends %q, %q accepts %q",
			ErrTypeMismatch, p.qname, p.typ.Name, r.dest, in.typ.Name)
	}
	return in, owner, frame, nil
}

// enqueue buffers one delivery, its owner reserved, and schedules a dispatch at
// the message priority; on failure it gives reservation and envelope share back.
func (s *SMM) enqueue(in *InPort, owner *Component, env *envelope, msg Message, prio sched.Priority) error {
	if err := in.push(bufItem{env: env, msg: msg, prio: prio, owner: owner}); err != nil {
		owner.release(pendingOne, 0)
		env.done()
		return err
	}
	if err := in.pool.Submit(prio, in.dispatchFn); err != nil {
		// Pool already shut down. Retract exactly the item just pushed —
		// popping an arbitrary one could orphan a different sender's
		// delivery while this one stays queued against a recycled
		// completion channel.
		if it, ok := in.removeItem(env, msg); ok {
			it.owner.release(pendingOne, 0)
			it.env.done()
		}
		return err
	}
	return nil
}

// dispatch runs on a pool worker: it pops one buffered message and processes
// it in the owner's memory context, at its priority (not the waking task's).
func (s *SMM) dispatch(in *InPort, _ sched.Priority) {
	it, ok := in.pop()
	if !ok {
		return
	}
	s.deliver(in, it.owner, 0, nil, it.msg, it.prio.Clamp())
	it.env.done()
	it.owner.release(pendingOne, 0)
}

// deliver is the one delivery routine behind every port: wait out the
// reserved owner's start function, stand in the owner's scopes on its
// reservation — on the sender's context from wherever it stands, or, when
// the sender lent none, on the call state's own from the top — and run the
// handler, whose error goes to the app: the message was delivered. Every
// caller holds owner reserved until deliver returns; that hold is the scope
// hold, so no area word is written on the way in or out. The call state is
// the owner's frame the reservation claimed, or, with frame 0, one from
// App.calls. A synchronous port counts a call once, as processed, when
// deliver returns.
func (s *SMM) deliver(in *InPort, owner *Component, frame uint64, sender *Proc, msg Message, prio sched.Priority) {
	// Never process a message before the owner finished initialising. (A
	// synchronous port whose owner sends to itself from its own start
	// function would deadlock here; send asynchronously or after Start.)
	owner.waitStarted()
	telemetry.RecordVerbose(telemetry.EvDispatch, in.label, 0, 0, uint64(prio))
	_, handler := in.binding()
	if handler == nil {
		// Owner disposed since it was reserved with no rebinding; the message
		// is dropped.
		s.owner.app.reportError(fmt.Errorf("core: %q: no handler bound", in.qname))
	} else {
		app := s.owner.app
		var cs *callState
		if frame != 0 {
			cs = owner.frame(frame)
		} else {
			cs = app.getCall()
		}
		ctx := cs.ctx
		if sender != nil {
			ctx = sender.ctx
		}
		cs.smm, cs.owner, cs.handler, cs.msg, cs.prio = s, owner, handler, msg, prio
		err := owner.enterReserved(ctx, cs.fn)
		cs.smm, cs.owner, cs.handler, cs.msg, cs.proc = nil, nil, nil, nil, Proc{}
		if frame == 0 {
			app.putCall(cs)
		}
		if err != nil {
			app.reportError(fmt.Errorf("core: %q handler: %w", in.qname, err))
		}
	}
	in.processed.Add(1)
}

// callState carries one handler invocation through the owner's memory
// context: its Proc, a preconstructed closure over itself, and a no-heap
// context of its own for a delivery whose sender lent none (and for
// Component.Exec). A component shell keeps two as its call frames; the rest
// are pooled per App. Either way the steady state allocates none of the
// three. Handlers must not retain the *Proc past the call.
type callState struct {
	ctx     *memory.Context
	smm     *SMM
	owner   *Component
	handler Handler
	msg     Message
	prio    sched.Priority
	proc    Proc
	fn      func(*memory.Context) error
}

func newCallState(ctx *memory.Context) *callState {
	cs := new(callState)
	cs.init(ctx)
	return cs
}

// init gives cs its context and its closure.
func (cs *callState) init(ctx *memory.Context) {
	cs.ctx = ctx
	cs.fn = func(ctx *memory.Context) error {
		cs.proc = Proc{comp: cs.owner, smm: cs.smm, ctx: ctx, prio: cs.prio}
		return cs.smm.process(cs.handler, &cs.proc, cs.msg)
	}
}

// process invokes a handler, converting panics into errors so one failing
// component cannot take the application down.
func (s *SMM) process(h Handler, p *Proc, msg Message) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: handler panic: %v", r)
		}
	}()
	return h.Process(p, msg)
}

// shutdown drains and stops every pool owned by this SMM, then disposes
// live children bottom-up.
func (s *SMM) shutdown() {
	if s.stopped.Swap(true) {
		return
	}
	s.mu.Lock()
	pools := make([]*sched.Pool, len(s.pools))
	copy(pools, s.pools)
	s.mu.Unlock()

	for _, p := range pools {
		p.Shutdown()
	}

	children := s.childShells()
	s.mu.Lock()
	// Retire this SMM's telemetry gauges so long-lived processes (tests,
	// servers cycling applications) do not accumulate dead entries, and
	// wake any senders parked on OverflowBlock ports. A delivery still
	// buffered has lost its dispatch to the shutdown (a sender whose Submit
	// failed retracts its own item, which may be the one another sender's
	// dispatch already took), and its owner cannot close under it.
	var orphans []bufItem
	for _, p := range s.in {
		p.closePort()
		for it, ok := p.pop(); ok; it, ok = p.pop() {
			orphans = append(orphans, it)
		}
		p.gauges.Unregister()
	}
	for _, p := range s.out {
		p.gauges.Unregister()
	}
	for _, mp := range s.msgPools {
		mp.gauges.Unregister()
	}
	if s.genGauge != nil {
		s.genGauge.Unregister()
		s.genGauge = nil
	}
	s.mu.Unlock()
	for _, it := range orphans {
		it.drop()
	}
	for _, c := range children {
		c.forceDispose()
	}
}
