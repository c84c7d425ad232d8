package memory

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Kind identifies the RTSJ region kind of an Area.
type Kind int

// Region kinds. Heap is garbage collected, and no Context can enter it:
// every one models a NoHeapRealtimeThread. Immortal lives for the lifetime
// of the Model; Scoped is reclaimed when its last entrant leaves.
const (
	KindHeap Kind = iota + 1
	KindImmortal
	KindScoped
)

// String returns the lower-case kind name.
func (k Kind) String() string {
	switch k {
	case KindHeap:
		return "heap"
	case KindImmortal:
		return "immortal"
	case KindScoped:
		return "scoped"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config parameterises a Model.
type Config struct {
	// ImmortalSize is the byte budget of immortal memory: an allocation past
	// it fails, but only the bytes allocated are committed. Zero selects
	// DefaultImmortalSize.
	ImmortalSize int64
}

// DefaultImmortalSize is the immortal budget used when Config.ImmortalSize
// is zero. It matches the order of magnitude of the paper's CCL example
// (ImmortalSize 400000).
const DefaultImmortalSize = 1 << 20

// Model is one simulated RTSJ memory system: a heap, an immortal region, and
// any number of scoped regions. Independent Models are fully isolated, which
// keeps tests and benchmarks hermetic.
type Model struct {
	heap     *Area
	immortal *Area

	nextID atomic.Uint64
}

// NewModel creates a memory model with the given configuration. It commits
// no immortal memory: the budget is charged as allocations are made.
func NewModel(cfg Config) *Model {
	immortalSize := cfg.ImmortalSize
	if immortalSize == 0 {
		immortalSize = DefaultImmortalSize
	}
	m := &Model{}
	m.heap = &Area{model: m, id: m.nextID.Add(1), name: "heap", kind: KindHeap}
	m.immortal = &Area{model: m, id: m.nextID.Add(1), name: "immortal",
		kind: KindImmortal, capacity: immortalSize}
	return m
}

// Immortal returns the model's immortal area.
func (m *Model) Immortal() *Area { return m.immortal }

// NewLTScoped creates a linear-time scoped area with the given byte budget,
// mirroring LTScopedMemory: the budget bounds what may be allocated, and
// allocation and reuse cost time linear in what is allocated. Creation
// commits no memory; the arena grows by doubling segments as allocations
// need it (see grow). The area's parent is fixed when the first
// context enters it.
func (m *Model) NewLTScoped(name string, size int64) *Area {
	return &Area{model: m, id: m.nextID.Add(1), name: name, kind: KindScoped, capacity: size}
}

// Scoped-area lifecycle state is packed into one atomic word so the
// steady-state enter/exit crossing is a single CAS instead of a mutex
// round trip:
//
//	bits 0..15   entrant count
//	bits 16..23  wedge count
//	bits 24..63  reuse generation
//
// The generation lives in the same word as the holder counts on purpose: a
// CAS that succeeds against an observed state proves no reclamation (and
// therefore no re-parenting — the parent pointer only changes on the first
// hold after a reclaim) happened between the observation and the update,
// which is what makes the lock-free paths ABA-safe.
const (
	entrantBits  = 16
	wedgeBits    = 8
	wedgeShift   = entrantBits
	genShift     = entrantBits + wedgeBits
	entrantMask  = 1<<entrantBits - 1
	wedgeMask    = (1<<wedgeBits - 1) << wedgeShift
	holderMask   = entrantMask | wedgeMask
	entrantDelta = 1
	wedgeDelta   = 1 << wedgeShift
)

// Area is one memory region. The zero value is not usable; create areas
// through a Model.
type Area struct {
	model    *Model
	id       uint64
	name     string
	kind     Kind
	capacity int64

	// state packs generation|wedges|entrants (see the bit layout above). It
	// is the sole source of truth for all three; fast enter/exit paths CAS
	// it without taking mu.
	state atomic.Uint64
	// parent is written only by first-hold and reclaim paths (both under
	// mu), and read lock-free by the enter fast path and CheckAccess.
	parent atomic.Pointer[Area]

	mu    sync.Mutex
	level int
	used  int64
	buf   []byte
	pool  *ScopePool
}

// Name returns the area's diagnostic name.
func (a *Area) Name() string { return a.name }

// Kind returns the area's region kind.
func (a *Area) Kind() Kind { return a.kind }

// genNow returns the current reuse generation (lock-free).
func (a *Area) genNow() uint64 { return a.state.Load() >> genShift }

// holders returns entrants+wedges (lock-free).
func (a *Area) holders() uint64 { return a.state.Load() & holderMask }

// Level returns the area's depth in the scope tree: 0 for heap, immortal,
// and inactive scoped areas; parent level + 1 for active scoped areas.
func (a *Area) Level() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.level
}

// Parent returns the current parent of an active scoped area, or nil for
// primordial and inactive areas.
func (a *Area) Parent() *Area {
	return a.parent.Load()
}

// Pinned reports whether at least one wedge holds the scoped area open.
func (a *Area) Pinned() bool { return a.state.Load()&wedgeMask != 0 }

// standIn is the check behind a pinned enter (Context.EnterBelow): a thread
// may stand in the area from `from` without a hold of its own only while a
// wedge holds it and it is parented under `from`. Loads only — the wedge's
// owner keeps both true for as long as the caller holds the owner.
func (a *Area) standIn(from *Area) error {
	pinned := a.Pinned()
	p := a.parent.Load()
	if !pinned || p == nil {
		return fmt.Errorf("%w: %q is not pinned open", ErrInactive, a.name)
	}
	if p != from {
		return fmt.Errorf("%w: %q is parented under %q, cannot enter from %q",
			ErrScopedCycle, a.name, p.Name(), from.Name())
	}
	return nil
}

// String summarises the area for diagnostics: its bytes used of its budget,
// its level, its holders, and its reuse generation, which every reclamation
// bumps.
func (a *Area) String() string {
	s := a.state.Load()
	a.mu.Lock()
	defer a.mu.Unlock()
	return fmt.Sprintf("%s(%s, %d/%d bytes, level %d, entrants %d, wedges %d, generation %d)",
		a.name, a.kind, a.used, a.capacity, a.level, s&entrantMask, (s&wedgeMask)>>wedgeShift, s>>genShift)
}

// enter records a context entering the area from the given current area,
// enforcing the single-parent rule for scoped areas.
//
// Fast path: while the area is held open (entrants+wedges > 0) its parent
// is fixed, so re-entry from the same parent is one CAS bumping the entrant
// count. The parent read races reclamation, but the CAS revalidates it:
// success requires the whole state word — generation included — to be
// unchanged since the load, and the parent can only change through a
// reclaim that bumps the generation.
func (a *Area) enter(from *Area) error {
	if a.kind != KindScoped {
		return nil
	}
	for {
		s := a.state.Load()
		if s&holderMask == 0 || s&entrantMask == entrantMask {
			break // first holder (or counter saturated): take the lock
		}
		if a.parent.Load() != from {
			break // mismatch or racing reclaim: settle it under the lock
		}
		if a.state.CompareAndSwap(s, s+entrantDelta) {
			return nil
		}
	}
	return a.enterSlow(from)
}

// enterSlow is the mutex path: first entrant fixes the parent (RTSJ binds
// the scope's parent at first entry and clears it on reclamation); re-entry
// of an active area enforces the single-parent rule.
func (a *Area) enterSlow(from *Area) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		s := a.state.Load()
		if s&entrantMask == entrantMask {
			return fmt.Errorf("memory: %q: entrant count saturated", a.name)
		}
		if s&holderMask == 0 {
			// Sole prospective holder. No fast-path CAS can interleave here
			// (fast enter/exit both require holders > 0) and slow paths
			// serialise on mu, so a plain store of parent/level before the
			// count bump is safe.
			a.parent.Store(from)
			a.level = from.scopeLevel() + 1
			a.state.Store(s + entrantDelta)
			return nil
		}
		if p := a.parent.Load(); p != from {
			return fmt.Errorf("%w: %q is already parented under %q, cannot enter from %q",
				ErrScopedCycle, a.name, p.Name(), from.Name())
		}
		if a.state.CompareAndSwap(s, s+entrantDelta) {
			return nil
		}
	}
}

// exit records a context leaving the area, reclaiming it if it was the last
// holder. The fast path handles the not-last-holder case with one CAS; only
// the final exit (entrants==1, wedges==0) takes the mutex to reclaim.
func (a *Area) exit() {
	if a.kind != KindScoped {
		return
	}
	for {
		s := a.state.Load()
		if s&holderMask == entrantDelta {
			break // sole holder: reclaim under the lock
		}
		if a.state.CompareAndSwap(s, s-entrantDelta) {
			return
		}
	}
	a.dropSlow(entrantDelta)
}

// dropSlow releases one holder (an entrant or a wedge) under the mutex,
// reclaiming the area if it was the last. A concurrent fast enter
// can race the count back up between the caller's check and the lock
// acquisition, so the decision is re-taken in a CAS loop.
func (a *Area) dropSlow(delta uint64) {
	a.mu.Lock()
	for {
		s := a.state.Load()
		if a.state.CompareAndSwap(s, s-delta) {
			if s&holderMask != delta {
				a.mu.Unlock() // not the last holder after all
				return
			}
			break
		}
	}
	// Dropped to zero holders. Once that CAS landed no lock-free enter can
	// succeed (they require holders > 0) and slow enters are blocked on mu,
	// so reclaimLocked runs with the area quiescent.
	a.reclaimLocked(0)
	a.mu.Unlock()
	if a.pool != nil {
		a.pool.put(a)
	}
}

// scopeLevel returns the level used for a child parented under this area.
// Called while the receiver is held open by the caller's context, which
// ordered the level write (first hold) before the state bump that made the
// area visible as active.
func (a *Area) scopeLevel() int {
	if a.kind != KindScoped {
		return 0
	}
	return a.level
}

// reclaimLocked resets the area for reuse. Callers guarantee holders == 0
// and hold mu. The generation bump is published first so lock-free Ref
// checks go stale before the arena is rezeroed. keep is the holder count the
// area comes out with: none leaves it unparented, a wedge keeps parent and
// level.
func (a *Area) reclaimLocked(keep uint64) {
	s := a.state.Load()
	a.state.Store((s>>genShift+1)<<genShift | keep)
	if keep == 0 {
		a.parent.Store(nil)
		a.level = 0
	}
	a.used = 0
	// Linear-time reuse cost, like LTScopedMemory — but proportional to what
	// the scope allocated in its newest segment, the one kept. Carves are
	// three-index slices, so nothing wrote past len(a.buf): the rest of the
	// segment is still zero. Older segments go with the Refs into them.
	clear(a.buf)
	a.buf = a.buf[:0]
}

// alloc carves n bytes out of the area, or reports ErrOutOfMemory.
func (a *Area) alloc(n int) (Ref, error) {
	if n < 0 {
		return Ref{}, fmt.Errorf("memory: negative allocation size %d", n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.kind == KindScoped && a.holders() == 0 {
		return Ref{}, fmt.Errorf("%w: allocation in %q", ErrInactive, a.name)
	}
	if a.kind != KindHeap { // the heap is unbounded
		if err := a.fitsLocked(n); err != nil {
			return Ref{}, err
		}
	}
	if a.kind == KindScoped {
		a.ensureLocked(n)
		return a.carveLocked(n), nil
	}
	// Heap and immortal allocations are each their own zeroed slice.
	a.used += int64(n)
	return Ref{area: a, gen: a.genNow(), data: make([]byte, n)}, nil
}

// tryAlloc is alloc on a scoped area its caller stands in (so it is held
// open), for a caller with somewhere else to go: when the n bytes do not fit
// it reports false and builds no error.
func (a *Area) tryAlloc(n int) (Ref, bool) {
	a.mu.Lock()
	if n < 0 || !a.roomLocked(n) {
		a.mu.Unlock()
		return Ref{}, false
	}
	a.ensureLocked(n)
	ref := a.carveLocked(n)
	a.mu.Unlock()
	return ref, true
}

// roomLocked reports whether n more bytes fit the budget.
func (a *Area) roomLocked(n int) bool { return a.used+int64(n) <= a.capacity }

// fitsLocked reports ErrOutOfMemory unless n more bytes fit the budget.
func (a *Area) fitsLocked(n int) error {
	if !a.roomLocked(n) {
		return fmt.Errorf("%w: %q needs %d bytes, %d free",
			ErrOutOfMemory, a.name, n, a.capacity-a.used)
	}
	return nil
}

// ensureLocked makes room for n more bytes in the arena's newest segment,
// a.buf, whose length is the part carved. It is apart from carveLocked so
// that both inline at the carve sites on every request, and growth does not.
func (a *Area) ensureLocked(n int) {
	if len(a.buf)+n > cap(a.buf) {
		a.grow(n)
	}
}

// carveLocked hands out the next n bytes of the arena's newest segment; the
// caller has checked the budget (fitsLocked) and made room (ensureLocked).
func (a *Area) carveLocked(n int) Ref {
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	a.used += int64(n)
	return Ref{area: a, gen: a.genNow(), data: a.buf[off : off+n : off+n]}
}

// grow commits a fresh segment for a carve of n bytes that does not fit the
// newest one, so an area commits what it holds, not its budget. The segment
// is at least 1 KiB, twice the last one and twice n (a large carve leaves as
// much room behind it), and never more than the budget. The last segment
// stays with the Refs carved from it. An area cycled through the same
// allocations therefore stops growing once one segment holds them all,
// within 1 + log2(capacity / 1 KiB) cycles; capping at what is left of the
// budget instead would make an area near its budget commit a short segment
// every cycle. Growth is rare, so it stays out of line.
//
//go:noinline
func (a *Area) grow(n int) {
	size := min(2*max(int64(n), int64(cap(a.buf)), 512), a.capacity)
	a.buf = make([]byte, 0, size)
}
