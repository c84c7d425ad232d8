package core

import (
	"fmt"
	"sync"
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
	// Reusable lets the SMM cache the component shell at quiescence and
	// revive it on the next instantiation instead of rebuilding it. The
	// memory semantics are unchanged — the scoped area is still reclaimed at
	// quiescence and a fresh one acquired, charged, and pinned on revival,
	// and the start function re-runs — but Setup runs only on the shell's
	// first construction: its port registrations and bindings survive
	// because the very same shell returns. Only set this for children whose
	// Setup is pure declaration (ports, handlers, start function) with no
	// per-instance side effects outside the component's area.
	Reusable bool
	// Setup declares the child's ports, nested child definitions, and start
	// function. It runs on every instantiation.
	Setup func(*Component) error
}

// Component is one Compadres component: a named artifact bound to a memory
// area, communicating through typed ports. Top-level components live in
// immortal memory; children live in scoped areas pinned open for the
// instance's lifetime.
type Component struct {
	app    *App
	name   string
	parent *Component
	area   *memory.Area
	wedge  *memory.Wedge // nil for immortal components
	level  int           // 0 for immortal components
	mgr    *SMM          // the SMM that instantiated this component (nil for top-level)
	def    *ChildDef     // blueprint this instance came from (nil for top-level)

	// started flips once the instance's start function has run (child
	// instances only). Message dispatch checks it — one atomic load on the
	// hot path — so a component never processes a message before it has
	// finished initialising. startWait is created lazily, under liveMu, only
	// by a delivery that actually races instantiation; it is closed (and the
	// waiters released) when started flips.
	started   atomic.Bool
	startWait chan struct{}

	// Construction-time state; smm is created lazily under app.mu.
	smm       *SMM
	childDefs map[string]*ChildDef
	startFn   func(*Proc) error

	// chain caches the component's scoped ancestor path (outermost first),
	// built once: area and parent are fixed for the instance's lifetime.
	chainOnce sync.Once
	chain     []*memory.Area

	// Liveness accounting. liveMu is the innermost lock: it is taken with
	// an SMM lock held but never the other way around.
	liveMu       sync.Mutex
	pending      int // in-flight messages targeted at this component
	handles      int // live Connect handles
	liveChildren int // instantiated, not-yet-disposed children
	autoDispose  bool
	disposed     bool
	// retired marks an instance swapped out by SMM.Swap: it must be
	// reclaimed at quiescence like any disconnect, but its shell must never
	// be stashed for revival — the blueprint it came from has been replaced.
	retired bool
}

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
func (c *Component) Disposed() bool {
	c.liveMu.Lock()
	defer c.liveMu.Unlock()
	return c.disposed
}

// SMM returns the component's scoped memory manager — the single manager
// through which it communicates with all of its children — creating it on
// first use. Its message pools and buffers are charged to this component's
// memory area.
func (c *Component) SMM() *SMM {
	c.app.mu.Lock()
	defer c.app.mu.Unlock()
	if c.smm == nil {
		c.smm = newSMM(c)
	}
	return c.smm
}

// SetStart registers the component's start function (the paper's _start),
// run in the component's execution context when the component starts: at
// App.Start for top-level components, at instantiation for children.
func (c *Component) SetStart(fn func(*Proc) error) { c.startFn = fn }

// DefineChild registers a child blueprint. The child is instantiated by the
// component's SMM on demand.
func (c *Component) DefineChild(def ChildDef) error {
	if err := checkName(def.Name); err != nil {
		return err
	}
	if def.Setup == nil {
		return fmt.Errorf("core: child %q: nil Setup", def.Name)
	}
	if !def.UsePool && def.MemorySize <= 0 {
		return fmt.Errorf("core: child %q: non-positive memory size %d", def.Name, def.MemorySize)
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

// Exec runs fn inside the component's memory context: a no-heap context
// whose scope stack is entered down to the component's area, so allocations
// land in the component's region and the RTSJ access rules apply. Contexts
// are drawn from the app's pool; a context is recycled only when fn left the
// scope stack balanced (a panic drops it instead).
func (c *Component) Exec(fn func(*memory.Context) error) error {
	ctx := c.app.getNoHeapCtx()
	err := c.enterChain(ctx, fn)
	c.app.putNoHeapCtx(ctx)
	return err
}

// scopeChain returns the component's cached scoped-area path, outermost
// first, ending at c's own area.
func (c *Component) scopeChain() []*memory.Area {
	c.chainOnce.Do(func() {
		var chain []*memory.Area
		for cc := c; cc != nil && cc.area.Kind() == memory.KindScoped; cc = cc.parent {
			chain = append(chain, cc.area)
		}
		for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
			chain[i], chain[j] = chain[j], chain[i]
		}
		c.chain = chain
	})
	return c.chain
}

// enterChain enters the component's ancestor areas outermost-first, then
// runs fn with the context current in c's area.
func (c *Component) enterChain(ctx *memory.Context, fn func(*memory.Context) error) error {
	if c.area.Kind() != memory.KindScoped {
		return ctx.ExecuteInArea(c.area, fn)
	}
	return ctx.EnterChain(c.scopeChain(), fn)
}

// waitStarted blocks until the instance's start function has completed.
// Top-level components (nil mgr) never block: their start order is
// App.Start's contract.
func (c *Component) waitStarted() {
	if c.mgr == nil || c.started.Load() {
		return
	}
	c.liveMu.Lock()
	if c.started.Load() {
		c.liveMu.Unlock()
		return
	}
	if c.startWait == nil {
		c.startWait = make(chan struct{})
	}
	ch := c.startWait
	c.liveMu.Unlock()
	<-ch
}

// markStarted releases deliveries parked in waitStarted. It runs whether or
// not the start function succeeded — a failed instance is force-disposed
// right after, and the parked dispatches fail on the disposed check.
func (c *Component) markStarted() {
	c.liveMu.Lock()
	c.started.Store(true)
	if c.startWait != nil {
		close(c.startWait)
		c.startWait = nil
	}
	c.liveMu.Unlock()
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
	if smm := c.currentSMM(); smm != nil {
		smm.shutdown()
	}
}

func (c *Component) currentSMM() *SMM {
	c.app.mu.Lock()
	defer c.app.mu.Unlock()
	return c.smm
}

// childDef looks up a child blueprint.
func (c *Component) childDef(name string) *ChildDef {
	c.app.mu.Lock()
	defer c.app.mu.Unlock()
	return c.childDefs[name]
}

// addPending registers an in-flight message targeted at this component,
// failing if the instance has already been disposed.
func (c *Component) addPending() bool {
	c.liveMu.Lock()
	defer c.liveMu.Unlock()
	if c.disposed {
		return false
	}
	c.pending++
	return true
}

// donePending retires one in-flight message.
func (c *Component) donePending() {
	c.liveMu.Lock()
	c.pending--
	c.liveMu.Unlock()
}

// addHandle registers a Connect handle, failing on a disposed instance.
func (c *Component) addHandle() bool {
	c.liveMu.Lock()
	defer c.liveMu.Unlock()
	if c.disposed {
		return false
	}
	c.handles++
	return true
}

// childGone retires one live child.
func (c *Component) childGone() {
	c.liveMu.Lock()
	c.liveChildren--
	c.liveMu.Unlock()
}

// childBorn registers one live child.
func (c *Component) childBorn() {
	c.liveMu.Lock()
	c.liveChildren++
	c.liveMu.Unlock()
}

// maybeQuiesce disposes the instance if it is transient and fully
// quiescent, then propagates the check to the parent. It is the runtime
// behaviour behind the paper's "after the messages are processed by the
// component, the scoped memory objects are reclaimed".
func (c *Component) maybeQuiesce() {
	if c.mgr == nil {
		return
	}
	c.liveMu.Lock()
	if c.disposed || !c.autoDispose || c.pending > 0 || c.handles > 0 || c.liveChildren > 0 {
		c.liveMu.Unlock()
		return
	}
	c.disposed = true
	retired := c.retired
	c.liveMu.Unlock()

	if c.def != nil && c.def.Reusable && !retired {
		// Keep the port bindings: the same shell comes back on revival, so a
		// binding that still names it is merely dormant — addPending rejects
		// deliveries while the shell is disposed, and the resolveIn fallback
		// re-instantiates. The shell is stashed only after teardown so a
		// concurrent revival can never race the wedge release, and the three
		// steps hold instMu so no instantiation can fall between them: a
		// sender that found the child forgotten but not yet stashed would
		// build a second shell and rebind the ports to it, and the revival
		// after that would take this one back while the ports name the other.
		c.mgr.instMu.Lock()
		c.mgr.forget(c)
		c.teardown()
		c.mgr.stashShell(c)
		c.mgr.instMu.Unlock()
	} else {
		c.mgr.detach(c)
		c.teardown()
	}
	if p := c.parent; p != nil {
		p.childGone()
		p.maybeQuiesce()
	}
}

// retire marks the instance for reclamation at quiescence (like an explicit
// Disconnect) and bars its shell from being stashed for revival: a
// swapped-out version must never come back under the new blueprint.
func (c *Component) retire() {
	c.liveMu.Lock()
	c.autoDispose = true
	c.retired = true
	c.liveMu.Unlock()
}

// awaitDisposed waits — bounded by timeout — for the instance to be
// reclaimed, reporting whether it was. The 50µs poll keeps the reconfig
// pause measurement fine-grained without touching the per-message paths.
func (c *Component) awaitDisposed(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for !c.Disposed() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// busy reports in-flight work anywhere in the component's subtree: pending
// deliveries on this instance, queued messages on its SMM's In ports, or a
// busy child.
func (c *Component) busy() bool {
	c.liveMu.Lock()
	pending := c.pending
	c.liveMu.Unlock()
	if pending > 0 {
		return true
	}
	smm := c.currentSMM()
	return smm != nil && smm.busy()
}

// forceDispose reclaims the instance regardless of quiescence (Stop path;
// pools must already be drained).
func (c *Component) forceDispose() {
	c.liveMu.Lock()
	if c.disposed {
		c.liveMu.Unlock()
		return
	}
	c.disposed = true
	c.liveMu.Unlock()

	if c.mgr != nil {
		c.mgr.detach(c)
	}
	c.teardown()
	if p := c.parent; p != nil {
		p.childGone()
	}
}

// teardown shuts the component's own SMM down and releases its area. Most
// transient instances never created an SMM of their own (their ports live on
// the parent's), so the common path is one lock cycle and the wedge release.
func (c *Component) teardown() {
	c.app.mu.Lock()
	smm := c.smm
	c.app.mu.Unlock()
	if smm != nil {
		smm.shutdown()
		c.app.mu.Lock()
		c.smm = nil
		c.app.mu.Unlock()
	}
	if c.wedge != nil {
		c.wedge.Release()
	}
}
