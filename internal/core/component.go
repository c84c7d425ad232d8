package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/memory"
	"repro/internal/sched"
)

// ChildDef is the blueprint of a scoped child component. Children are not
// constructed eagerly: the parent's SMM instantiates one when a message
// first arrives for one of its ports or when the parent calls SMM.Connect,
// and — unless Persistent — reclaims it at quiescence (no pending messages,
// no handles, no live children). This is the dynamic component
// instantiation of §2.2 of the paper.
type ChildDef struct {
	// Name is the child's instance name, unique among its siblings.
	Name string
	// MemorySize is the byte budget of the child's scoped area when no
	// scope pool serves its level.
	MemorySize int64
	// UsePool selects acquiring the area from the App's scope pool for the
	// child's nesting level instead of creating a fresh LT area each time.
	UsePool bool
	// Persistent keeps the instance alive at quiescence; it is reclaimed
	// only by Handle.Disconnect or App.Stop.
	Persistent bool
	// Reusable lets the SMM park the component shell at quiescence and
	// revive it on the next instantiation instead of rebuilding it. The
	// parked shell keeps its scoped area, reclaimed in place under its wedge
	// (SCJ's reset of a handler's private memory at the end of a release):
	// the generation moves on, so every Ref into the finished work goes
	// stale, the used bytes are zeroed and the header charged afresh. The
	// area goes back to its pool only when the shell is disposed for good —
	// swapped out, or stopped with its parent — so a pool holds one area per
	// Reusable shell, not per in-flight instance. The start function re-runs
	// on every revival, but Setup runs only on the shell's first
	// construction: its port registrations and bindings survive because the
	// very same shell returns. Only set this for children whose Setup is
	// pure declaration (ports, handlers, start function) with no
	// per-instance side effects outside the component's area.
	Reusable bool
	// Setup declares the child's ports, nested child definitions, and start
	// function. It runs on every instantiation.
	Setup func(*Component) error
}

// check rejects a blueprint DefineChild or Swap cannot build from.
func (def *ChildDef) check() error {
	if err := checkName(def.Name); err != nil {
		return err
	}
	if def.Setup == nil {
		return fmt.Errorf("core: child %q: nil Setup", def.Name)
	}
	if !def.UsePool && def.MemorySize <= 0 {
		return fmt.Errorf("core: child %q: non-positive memory size %d", def.Name, def.MemorySize)
	}
	return nil
}

// Component is one Compadres component: a named artifact bound to a memory
// area, communicating through typed ports. Top-level components live in
// immortal memory; children live in scoped areas pinned open for the
// instance's lifetime.
type Component struct {
	app    *App
	name   string
	parent *Component
	level  int       // 0 for immortal components
	mgr    *SMM      // the SMM that instantiated this component (nil for top-level)
	def    *ChildDef // blueprint this instance came from (nil for top-level)

	// The shell's memory, written only by open as the shell is built, before
	// anyone else can see it. A parked Reusable shell keeps all three.
	area  *memory.Area
	wedge memory.Wedge   // pins area; never armed for immortal components
	chain []*memory.Area // scoped ancestor path, outermost first, ending at area

	// life is the component's whole liveness state in one word (see the
	// layout below). Every per-message transition is a CAS on it.
	life atomic.Uint64
	// changed is notified after every transition of life somebody may wait
	// for: started, a release (idle, disposed), a shell parked or published.
	changed sched.Signal
	// frames are the shell's resident call frames. A reservation for a call
	// claims a free one in its reserve CAS and gives it back in its release,
	// both on the frame bits of life, and its holder alone touches it in
	// between. Each is built on its first claim and lives as long as the shell.
	frames [2]callState

	// smm is created lazily under app.mu and read without it.
	smm       atomic.Pointer[SMM]
	childDefs map[string]*ChildDef // under app.mu
	startFn   func(*Proc) error
}

// Layout of Component.life. The three counts are what keeps an instance
// alive; the flags say what happens when they reach zero.
//
//	bits 0..23   pending: in-flight messages targeted at this component
//	bits 24..39  handles: live Connect handles
//	bits 40..55  children: instantiated, not yet disposed children
//	bits 56..57  frames: frames[0] and frames[1] are held, each by one of
//	             the pending reservations (so both are clear at zero counts)
//	lifeStarted  the start function has run; dispatch waits for it
//	lifeAuto     reclaim at quiescence (transient, disconnected or retired)
//	lifeRetired  never park: not Reusable, swapped out, or force-disposed
//	lifeParked   a disposed Reusable shell, its area reclaimed in place and
//	             held by its wedge alone, free to claim
//	lifeDisposed no live instance; with neither lifeParked nor lifeRetired the
//	             shell is in transition, owned by the one goroutine closing or
//	             opening it
const (
	pendingOne  uint64 = 1
	handleOne   uint64 = 1 << 24
	childOne    uint64 = 1 << 40
	pendingMask        = handleOne - 1
	handleMask         = childOne - handleOne
	countMask          = 1<<56 - 1
	frameOne    uint64 = 1 << 56
	frameMask          = 3 * frameOne

	lifeStarted  uint64 = 1 << 59
	lifeAuto     uint64 = 1 << 60
	lifeRetired  uint64 = 1 << 61
	lifeParked   uint64 = 1 << 62
	lifeDisposed uint64 = 1 << 63
)

// Name returns the component's instance name.
func (c *Component) Name() string { return c.name }

// Path returns the slash-separated path from the top-level component.
func (c *Component) Path() string {
	if c.parent == nil {
		return c.name
	}
	return c.parent.Path() + "/" + c.name
}

// App returns the owning application.
func (c *Component) App() *App { return c.app }

// Parent returns the parent component, or nil for top-level components.
func (c *Component) Parent() *Component { return c.parent }

// Area returns the component's memory area.
func (c *Component) Area() *memory.Area { return c.area }

// Level returns the component's scope nesting level: 0 for immortal
// components, parent level + 1 for scoped children.
func (c *Component) Level() int { return c.level }

// Disposed reports whether the component instance has been reclaimed.
func (c *Component) Disposed() bool { return c.life.Load()&lifeDisposed != 0 }

// SMM returns the component's scoped memory manager — the single manager
// through which it communicates with all of its children — creating it on
// first use. Its message pools and buffers are charged to this component's
// memory area.
func (c *Component) SMM() *SMM {
	if s := c.smm.Load(); s != nil {
		return s
	}
	c.app.mu.Lock()
	defer c.app.mu.Unlock()
	if c.smm.Load() == nil {
		c.smm.Store(newSMM(c))
	}
	return c.smm.Load()
}

// SetStart registers the component's start function (the paper's _start),
// run in the component's execution context when the component starts: at
// App.Start for top-level components, at instantiation for children.
func (c *Component) SetStart(fn func(*Proc) error) { c.startFn = fn }

// DefineChild registers a child blueprint. The child is instantiated by the
// component's SMM on demand.
func (c *Component) DefineChild(def ChildDef) error {
	if err := def.check(); err != nil {
		return err
	}
	c.app.mu.Lock()
	defer c.app.mu.Unlock()
	if _, dup := c.childDefs[def.Name]; dup {
		return fmt.Errorf("%w: child %q of %q", ErrDuplicateName, def.Name, c.name)
	}
	if c.childDefs == nil {
		// Allocated on first definition: most instances (every pooled
		// transient re-instantiated per request) define no children, and a
		// nil map reads fine everywhere else.
		c.childDefs = make(map[string]*ChildDef)
	}
	d := def
	c.childDefs[def.Name] = &d
	return nil
}

// UndefineChild forgets a blueprint registered with DefineChild, so that a
// parent defining one child per unit of work (the ORB server: a Transport
// per connection) does not collect them. An instance already built from it
// lives on until it is reclaimed.
func (c *Component) UndefineChild(name string) {
	c.app.mu.Lock()
	delete(c.childDefs, name)
	c.app.mu.Unlock()
}

// Exec runs fn inside the component's memory context: a no-heap context
// whose scope stack is entered down to the component's area, so allocations
// land in the component's region and the RTSJ access rules apply. Contexts
// are drawn from the app's pool; a context is recycled only when fn left the
// scope stack balanced (a panic drops it instead).
//
// Exec reserves nothing, so it enters the chain as a counted holder
// (memory.Context.EnterChain), and its caller must keep a live instance alive
// across the call: with a handle, a pending delivery, or from the instance's
// own start function. A disposed instance — a parked Reusable shell, whose
// area its wedge alone holds between two revivals, included — is refused with
// an error wrapping ErrStopped and nothing is entered.
func (c *Component) Exec(fn func(*memory.Context) error) error {
	if c.Disposed() {
		return fmt.Errorf("core: exec in %q: %w", c.Path(), ErrStopped)
	}
	cs := c.app.getCall()
	var err error
	if c.area.Kind() != memory.KindScoped {
		err = cs.ctx.ExecuteInArea(c.area, fn)
	} else {
		err = cs.ctx.EnterChain(c.chain, fn)
	}
	c.app.putCall(cs)
	return err
}

// enterReserved runs a delivery's fn with ctx current in c's area, which the
// delivery holds reserved: the reservation keeps c open, so its wedge and
// every ancestor's stay armed, and ctx stands in the part of the scope chain
// it is not already in without touching an area word
// (memory.Context.EnterBelow) — all of it for a fresh context, one area for
// a sender's context that is current in c's parent.
func (c *Component) enterReserved(ctx *memory.Context, fn func(*memory.Context) error) error {
	if c.area.Kind() != memory.KindScoped {
		return ctx.ExecuteInArea(c.area, fn)
	}
	return ctx.EnterBelow(c.chain, fn)
}

// waitStarted blocks until the instance's start function has completed.
// Top-level components (nil mgr) never block: their start order is
// App.Start's contract.
func (c *Component) waitStarted() {
	if c.mgr == nil || c.life.Load()&lifeStarted != 0 {
		return
	}
	c.changed.Wait(func() bool { return c.life.Load()&lifeStarted != 0 }, time.Time{})
}

// markStarted releases deliveries parked in waitStarted. It runs whether or
// not the start function succeeded — a failed instance is force-disposed
// right after, and the parked dispatches fail on the disposed check.
func (c *Component) markStarted() {
	for w := c.life.Load(); !c.life.CompareAndSwap(w, w|lifeStarted); w = c.life.Load() {
	}
	c.changed.Notify()
}

// runStart invokes the start function (if any) in the component's context.
func (c *Component) runStart() error {
	if c.startFn == nil {
		return nil
	}
	return c.Exec(func(ctx *memory.Context) error {
		return c.startFn(&Proc{comp: c, smm: c.SMM(), ctx: ctx, prio: sched.NormPriority})
	})
}

// shutdown tears the component's subtree down (Stop path).
func (c *Component) shutdown() {
	if smm := c.smm.Load(); smm != nil {
		smm.shutdown()
	}
}

// childDef looks up a child blueprint.
func (c *Component) childDef(name string) *ChildDef {
	c.app.mu.Lock()
	defer c.app.mu.Unlock()
	return c.childDefs[name]
}

// reserve registers one pending message on a live instance, first reopening
// a parked shell: the CAS that takes the parked bit makes the caller the
// shell's only owner. A shell in transition is about to be parked or
// published by its owner, so reserve waits for that instead of letting the
// caller build a second shell beside it. errGone means the instance will
// never serve again.
//
// A reservation for a call (call set) claims the lowest free call frame in
// the same CAS and returns its bit: 0 when both frames are held or the
// reservation reopened the shell. Its release gives the bit back with the
// message, release(pendingOne|frame, 0).
func (c *Component) reserve(call bool) (frame uint64, err error) {
	for {
		w := c.life.Load()
		switch {
		case w&lifeDisposed == 0:
			if call {
				free := ^w & frameMask
				frame = free & -free
			}
			if c.life.CompareAndSwap(w, (w+pendingOne)|frame) {
				return frame, nil
			}
		case w&lifeRetired != 0:
			return 0, errGone
		case w&lifeParked != 0:
			if c.life.CompareAndSwap(w, w&^lifeParked) {
				return 0, c.reopen()
			}
		default:
			if !c.awaitSettled() {
				return 0, fmt.Errorf("core: %q: instance kept quiescing", c.Path())
			}
		}
	}
}

// frame returns the call frame whose bit a reservation for a call claimed,
// building it on its first claim.
func (c *Component) frame(bit uint64) *callState {
	cs := &c.frames[bit>>57&1]
	if cs.fn == nil {
		cs.init(c.app.model.NewNoHeapContext())
	}
	return cs
}

// errGone is reserve's report that the instance is disposed for good.
var errGone = errors.New("core: instance gone")

// awaitSettled waits, up to resolveRetryBound, for the owner of a shell in
// transition to park or publish it.
func (c *Component) awaitSettled() bool {
	return c.changed.Wait(func() bool {
		return c.life.Load()&(lifeDisposed|lifeParked|lifeRetired) != lifeDisposed
	}, time.Now().Add(resolveRetryBound))
}

// resolveRetryBound caps a wait on a shell in transition. The owner of the
// transition never blocks on the waiter, so sustained loss for this long
// means something is wedged and the error is the honest report.
const resolveRetryBound = 10 * time.Second

// release drops delta from the counts and sets the given flags. The single
// caller whose CAS takes the last reservation of an auto-dispose instance
// also sets lifeDisposed and closes the instance: the runtime behaviour
// behind the paper's "after the messages are processed by the component,
// the scoped memory objects are reclaimed".
func (c *Component) release(delta, set uint64) {
	for !c.tryRelease(c.life.Load(), delta, set) {
	}
}

// tryRelease is one attempt at release against the observed word w; a
// successful one notifies waiters, after closing the instance if it was last.
func (c *Component) tryRelease(w, delta, set uint64) bool {
	n := (w - delta) | set
	last := n&(lifeDisposed|lifeAuto) == lifeAuto && n&countMask == 0
	if last {
		n |= lifeDisposed
	}
	if !c.life.CompareAndSwap(w, n) {
		return false
	}
	if last {
		c.close(n)
	}
	c.changed.Notify()
	return true
}

// childBorn registers one live child, failing on a disposed parent.
func (c *Component) childBorn() bool {
	for {
		w := c.life.Load()
		if w&lifeDisposed != 0 {
			return false
		}
		if c.life.CompareAndSwap(w, w+childOne) {
			return true
		}
	}
}

// open registers the shell with its parent — which then cannot close under
// it — and gives it its memory: an area (from the level's pool when the
// blueprint asks), pinned under the parent's with the component header
// charged in the same step, and the scope chain ending at it. It runs once,
// as the shell is built; the caller owns the shell exclusively.
func (c *Component) open() error {
	if !c.parent.childBorn() {
		return ErrStopped
	}
	area, err := c.acquireArea()
	if err != nil {
		c.parent.release(childOne, 0)
		return err
	}
	if err := c.wedge.Pin(area, c.parent.area, componentHeaderBytes); err != nil {
		if c.wedge.Pin(area, c.parent.area, 0) == nil {
			c.wedge.Release() // reclaiming the untouched area is its one way back to a pool
		}
		c.parent.release(childOne, 0)
		return fmt.Errorf("child %q header: %w", c.name, err)
	}
	c.area = area
	c.chain = append(append(c.chain, c.parent.chain...), area)
	return nil
}

// acquireArea takes the instance's area from the level's scope pool, or
// creates one of the blueprint's size.
func (c *Component) acquireArea() (*memory.Area, error) {
	if !c.def.UsePool {
		return c.app.model.NewLTScoped(c.Path(), c.def.MemorySize), nil
	}
	pool := c.app.ScopePool(c.level)
	if pool == nil {
		return nil, fmt.Errorf("core: child %q wants the level-%d scope pool, but none is configured", c.name, c.level)
	}
	area, err := pool.Acquire()
	if err != nil {
		return nil, fmt.Errorf("child %q: %w", c.name, err)
	}
	return area, nil
}

// reopen revives a parked shell its caller has just claimed. The shell kept
// its area, reclaimed in place and pinned by its wedge, so the revival only
// registers with the parent; then one store publishes it live with the
// caller's message already pending, so it cannot quiesce under the reviver.
// Setup does not re-run — the very same shell returns, so its port bindings
// never went away — but the start function does. On failure the shell goes
// back to parked, for a Stop to dispose.
func (c *Component) reopen() error {
	if c.mgr.stopped.Load() || !c.parent.childBorn() {
		c.publish(lifeDisposed | lifeParked | lifeAuto)
		return ErrStopped
	}
	if c.startFn == nil {
		c.publish(pendingOne | lifeAuto | lifeStarted)
		return nil
	}
	c.publish(pendingOne | lifeAuto)
	return c.start()
}

// publish ends a transition its caller owns: the shell goes live or back to
// parked, and whoever waited for it settling re-reads the word.
func (c *Component) publish(w uint64) {
	c.life.Store(w)
	c.changed.Notify()
}

// start runs the start function of a published instance and releases the
// deliveries waiting for it. A failed start retires the instance and gives
// up the caller's pending message; deliveries that raced in drain first.
func (c *Component) start() error {
	err := c.runStart()
	c.markStarted()
	if err != nil {
		c.release(pendingOne, lifeAuto|lifeRetired)
		return fmt.Errorf("child %q start: %w", c.name, err)
	}
	return nil
}

// close reclaims an instance whose last reservation just went; w is the
// word that CAS installed. Only its winner runs it. The instance's own SMM
// goes first — most transient instances never created one (their ports live
// on the parent's). A Reusable shell then keeps its place in the SMM, its
// port bindings — a binding that names a parked shell is merely dormant, the
// next reserve through it reopens the shell — and its area, which its wedge
// reclaims in place in one critical section; it is parked only after that,
// so a revival can never race the reclaim. Anything else — a shell whose SMM
// has stopped, or whose area somebody else still holds, included — is
// detached and releases its area for good.
func (c *Component) close(w uint64) {
	if smm := c.smm.Load(); smm != nil {
		smm.shutdown()
		c.smm.Store(nil)
	}
	if w&lifeRetired == 0 && !c.mgr.stopped.Load() && c.wedge.Reclaim(componentHeaderBytes) {
		c.publish(lifeDisposed | lifeParked | lifeAuto)
	} else {
		c.mgr.detach(c)
		c.wedge.Release()
		c.publish(w | lifeRetired)
	}
	c.parent.release(childOne, 0)
}

// retire marks the instance for reclamation at quiescence (like an explicit
// Disconnect) and bars its shell from parking or reviving: a swapped-out
// version must never come back under the new blueprint. A parked shell is
// disposed for good on the spot: the CAS that takes its parked bit makes the
// caller the one to release its wedge. handles masks the handle count to
// drop with it: handleMask at Stop, which outranks a pin. It reports whether
// the instance was live. A shell in transition settles first.
func (c *Component) retire(handles uint64) bool {
	settling := true
	for {
		w := c.life.Load()
		if settling && w&(lifeDisposed|lifeParked|lifeRetired) == lifeDisposed {
			settling = c.awaitSettled()
			continue
		}
		if w&lifeDisposed != 0 {
			if c.life.CompareAndSwap(w, w&^lifeParked|lifeRetired) {
				if w&lifeParked != 0 {
					c.wedge.Release()
				}
				return false
			}
		} else if c.tryRelease(w, w&handles, lifeAuto|lifeRetired) {
			return true
		}
	}
}

// busy reports in-flight work anywhere in the component's subtree.
func (c *Component) busy() bool { return c.firstBusy() != nil }

// firstBusy returns the first component in c's subtree, parents first, with
// a delivery pending on it — buffered or in its handler, either holds the
// owner's reservation — or nil. A swapped-out instance has left the tree:
// Swap drains it.
func (c *Component) firstBusy() *Component {
	if c.life.Load()&pendingMask != 0 {
		return c
	}
	smm := c.smm.Load()
	if smm == nil {
		return nil
	}
	for _, child := range smm.childShells() {
		if b := child.firstBusy(); b != nil {
			return b
		}
	}
	return nil
}

// forceDispose reclaims the instance at Stop: its subtree first, then the
// instance itself — a parked shell at once, a live one as soon as no handler
// is inside it. Port pools are already drained, but a synchronous port runs
// its handler on the sender's thread, so a message may still be pending; its
// release closes the instance instead — releasing the area under a running
// handler would let the handler's exit reclaim it a second time. Whoever
// sets lifeDisposed or takes the parked bit releases the wedge, so racing
// the quiescence winner this backs off and the wedge is released once.
func (c *Component) forceDispose() {
	c.shutdown()
	c.retire(handleMask)
}
