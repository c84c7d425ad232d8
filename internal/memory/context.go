package memory

import (
	"fmt"

	"repro/internal/telemetry"
)

// Scope traffic counters: every level Enter, EnterChain or EnterBelow pushes
// is one enter (exits mirror them and are not counted). Counter adds are
// sharded atomics, so the dispatch path's scope walk stays allocation- and
// lock-free.
var (
	scopeEnters = telemetry.NewCounter("scope_enter_total")
	// scopeOverflows counts Scratch buffers that did not fit the area their
	// thread stood in and took a nested pooled one.
	scopeOverflows = telemetry.NewCounter("scope_overflow_total")
)

// Context models one (real-time) thread's scope stack. A Context must be
// used by a single goroutine at a time, exactly like the thread whose stack
// it models; the areas it enters are themselves safe for concurrent entry by
// other contexts.
type Context struct {
	model *Model
	stack []*Area

	// execArea/execIdx cache the stack position where the last
	// ExecuteInArea target was found; validated against the live stack, so
	// a hit is one bounds check and one pointer compare.
	execArea *Area
	execIdx  int
}

// NewNoHeapContext returns a context modelling a NoHeapRealtimeThread, the
// only kind of thread a Compadres component runs on: its scope stack starts
// at immortal memory, and nothing it can reach enters the heap.
func (m *Model) NewNoHeapContext() *Context {
	return &Context{model: m, stack: []*Area{m.immortal}}
}

// Model returns the memory model this context belongs to.
func (c *Context) Model() *Model { return c.model }

// Current returns the context's allocation area (the top of its scope
// stack).
func (c *Context) Current() *Area { return c.stack[len(c.stack)-1] }

// Depth returns the number of areas on the scope stack, including the
// primordial area.
func (c *Context) Depth() int { return len(c.stack) }

// Enter pushes the area onto the scope stack, runs fn, then pops it. For a
// scoped area the single-parent rule is enforced: if the area is already
// active its parent must equal the context's current area. When the last
// holder leaves a scoped area it is reclaimed (arena reset, generation
// bumped).
func (c *Context) Enter(a *Area, fn func(*Context) error) error {
	if err := a.enter(c.Current()); err != nil {
		return err
	}
	scopeEnters.Inc()
	c.stack = append(c.stack, a)
	defer func() {
		c.stack = c.stack[:len(c.stack)-1]
		a.exit()
	}()
	return fn(c)
}

// EnterChain pushes every area in areas onto the scope stack in order
// (outermost first), runs fn with the context current in the last area, then
// pops and exits them innermost-first. It is semantically equivalent to the
// same sequence of nested Enter calls, without the per-level closures — the
// steady-state dispatch path uses it with a component's cached ancestor
// chain so entering an N-deep scope costs no allocation. A level that is
// held open (the usual case for all but the leaf) is entered with one CAS
// (Area.enter's fast path).
func (c *Context) EnterChain(areas []*Area, fn func(*Context) error) (err error) {
	base := len(c.stack)
	defer func() {
		for n := len(c.stack) - base; n > 0; n-- {
			top := c.stack[len(c.stack)-1]
			c.stack = c.stack[:len(c.stack)-1]
			top.exit()
		}
	}()
	for _, a := range areas {
		if err = a.enter(c.Current()); err != nil {
			break
		}
		c.stack = append(c.stack, a)
	}
	scopeEnters.Add(int64(len(c.stack) - base))
	if err != nil {
		return err
	}
	return fn(c)
}

// EnterBelow is the pinned enter. It runs fn with the context current in the
// last area of chain — a scoped ancestor path, outermost first, each level
// parented under the one before it and held open by a wedge for the whole
// call — entering only the levels that lie below the deepest one already on
// the scope stack. It is the handoff pattern generalised: RTSJ's
// executeInArea on the common ancestor, then enter what is left. A thread
// standing in the chain's parent enters one area, a thread in a sibling
// scope executes in the shared ancestor and enters the levels under it, and
// a thread with no area of the chain on its stack starts from its primordial
// area and enters the whole chain.
//
// Whatever keeps the chain pinned for the caller is the caller's scope hold,
// so no area's holder count moves: a level is pushed after a load-only check
// that a wedge holds it (else ErrInactive) and that it is parented under the
// current area (else ErrScopedCycle), and popped with no exit. A component
// delivery holds its receiver reserved, and an open component keeps its own
// wedge and its parent open, so every level of its chain qualifies. A
// caller that holds nothing pinning the chain uses EnterChain. The levels
// pushed count as scope enters, as EnterChain's do; the stack comes back as
// it was on every return and on a panic.
func (c *Context) EnterBelow(chain []*Area, fn func(*Context) error) error {
	base := len(c.stack)
	defer func() { c.stack = c.stack[:base] }()
	i, from := len(chain)-1, c.stack[0]
	for i >= 0 && !c.onStack(chain[i]) {
		i--
	}
	if i >= 0 {
		from = chain[i]
	}
	if from != c.Current() {
		c.stack = append(c.stack, from)
	}
	below := chain[i+1:]
	for _, a := range below {
		if err := a.standIn(c.Current()); err != nil {
			return err
		}
		c.stack = append(c.stack, a)
	}
	scopeEnters.Add(int64(len(below)))
	return fn(c)
}

// ExecuteInArea runs fn with the context's allocation area temporarily
// switched to a, without pushing a new scope. As in RTSJ, a must already be
// on the context's scope stack or be a primordial (heap/immortal) area;
// otherwise ErrNotOnStack is reported. It is the mechanism behind the
// handoff pattern: a thread deep in a child scope executes code "in" an
// ancestor area to deposit a message there.
func (c *Context) ExecuteInArea(a *Area, fn func(*Context) error) error {
	if a.kind == KindScoped && !c.onStack(a) {
		return fmt.Errorf("%w: %q", ErrNotOnStack, a.name)
	}
	c.stack = append(c.stack, a)
	defer func() { c.stack = c.stack[:len(c.stack)-1] }()
	return fn(c)
}

// onStack reports whether a is on the scope stack. The last hit's index is
// cached per context: the steady-state handoff crossing re-executes in the
// same ancestor area every message, so the common case is one pointer
// compare against the live stack (always sound — no staleness to guard,
// because the hit is re-verified against the current stack contents).
func (c *Context) onStack(a *Area) bool {
	if a == c.execArea && c.execIdx < len(c.stack) && c.stack[c.execIdx] == a {
		return true
	}
	for i, s := range c.stack {
		if s == a {
			c.execArea = a
			c.execIdx = i
			return true
		}
	}
	return false
}

// Alloc allocates n bytes in the context's current area.
func (c *Context) Alloc(n int) (Ref, error) {
	return c.Current().alloc(n)
}

// Scratch runs fn with n bytes that live no longer than the call, in the area
// the thread already stands in when that is a scoped one with room for them,
// and otherwise in an area of pool entered beneath it for the length of fn. It
// is for the per-request buffer of a component whose own area is reclaimed
// when the component quiesces: a request that finds room costs one
// allocation and no scope, and while overlapping requests keep the component
// from quiescing its area fills to its fixed capacity and every further
// request takes the nested area, as if there were no shortcut — memory stays
// bounded by the two area sizes either way. The choice is made under the
// lock the allocation takes anyway. A primordial current area always takes
// the pool, since immortal memory would keep the bytes for good. An error
// that is not fn's own wraps the pool's or the nested area's.
func (c *Context) Scratch(pool *ScopePool, n int, fn func(Ref) error) error {
	if cur := c.Current(); cur.kind == KindScoped {
		if ref, ok := cur.tryAlloc(n); ok {
			return fn(ref)
		}
	}
	scopeOverflows.Inc()
	area, err := pool.Acquire()
	if err != nil {
		return fmt.Errorf("scratch buffer: %w", err)
	}
	return c.Enter(area, func(ic *Context) error {
		ref, err := ic.Alloc(n)
		if err != nil {
			return fmt.Errorf("scratch buffer: %w", err)
		}
		return fn(ref)
	})
}

// AllocIn allocates n bytes in area a, which must be on the context's scope
// stack or primordial — RTSJ's MemoryArea.newInstance called on an outer
// area. It is equivalent to ExecuteInArea + Alloc.
func (c *Context) AllocIn(a *Area, n int) (Ref, error) {
	var ref Ref
	err := c.ExecuteInArea(a, func(ic *Context) error {
		var aerr error
		ref, aerr = ic.Alloc(n)
		return aerr
	})
	return ref, err
}
