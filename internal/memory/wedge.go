package memory

import (
	"fmt"
	"sync/atomic"
)

// Wedge pins a scoped area open, modelling the wedge-thread pattern
// (Pizlo et al., ISORC'04) used by the Compadres scoped memory managers: a
// parked thread whose only job is to keep the scope's reference count above
// zero so the region is not reclaimed between messages.
//
// The zero Wedge holds nothing; a released one may pin again. A component
// shell embeds one and keeps its area pinned across quiescence (Reclaim).
type Wedge struct {
	area *Area
	// armed is the hold itself: Pin sets it after the area's count moved,
	// Release takes it with a CAS, so racing releases drop the area once.
	armed atomic.Bool
}

// Pin wedges the area open as if entered from `from` (the would-be parent)
// and charges it header bytes in the same critical section: the wedge
// thread's own allocation, made as it arrives. For an inactive scoped area
// this fixes its parent exactly like a first Enter; for an active one the
// single-parent rule is enforced. Pinning heap or immortal areas is a no-op
// that still leaves a releasable wedge. One goroutine owns a wedge.
func (w *Wedge) Pin(a *Area, from *Area, header int) error {
	if w.armed.Load() {
		return fmt.Errorf("memory: wedge still holds %q, cannot pin %q", w.area.name, a.name)
	}
	if err := a.pin(from, header); err != nil {
		return err
	}
	w.area = a
	w.armed.Store(true)
	return nil
}

// pin adds one wedge to the area's holders and allocates header bytes in it.
func (a *Area) pin(from *Area, header int) error {
	if a.kind != KindScoped {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.fitsLocked(header); err != nil {
		return err // before the count moves: nothing to undo
	}
	for {
		s := a.state.Load()
		if s&wedgeMask == wedgeMask {
			return fmt.Errorf("memory: %q: wedge count saturated", a.name)
		}
		if s&holderMask == 0 {
			// Sole prospective holder: fix parent and level, exactly like a
			// first enter. No lock-free transition can interleave while
			// holders == 0 (see enterSlow), so a plain store is safe.
			a.parent.Store(from)
			a.level = from.scopeLevel() + 1
			a.state.Store(s + wedgeDelta)
			break
		}
		if p := a.parent.Load(); p != from {
			return fmt.Errorf("%w: %q is parented under %q, cannot pin from %q",
				ErrScopedCycle, a.name, p.Name(), from.Name())
		}
		if a.state.CompareAndSwap(s, s+wedgeDelta) {
			break
		}
	}
	if header > 0 {
		a.ensureLocked(header)
		a.carveLocked(header)
	}
	return nil
}

// Area returns the area the wedge last pinned.
func (w *Wedge) Area() *Area { return w.area }

// Reclaim resets the scoped area the wedge alone holds, in place and in one
// critical section, as if reclaimed and pinned again: the generation bumps
// (every Ref into it goes stale), the used bytes are zeroed
// and header bytes charged afresh; parent and level stay. With any other
// holder it reports false and changes nothing.
func (w *Wedge) Reclaim(header int) bool {
	a := w.area
	if !w.armed.Load() {
		return false
	}
	a.mu.Lock() // a heap or immortal area has no holders: refused below
	s := a.state.Load()
	if s&holderMask != wedgeDelta || !a.state.CompareAndSwap(s, s-wedgeDelta) {
		a.mu.Unlock()
		return false
	}
	// No holder left: lock-free enters fail and slow ones wait on mu.
	a.reclaimLocked(wedgeDelta)
	a.ensureLocked(header)
	a.carveLocked(header)
	a.mu.Unlock()
	return true
}

// Release removes the wedge. If it was the last holder the area is
// reclaimed. Release is idempotent and safe against a concurrent Release:
// exactly one caller drops the hold.
func (w *Wedge) Release() {
	if w.armed.CompareAndSwap(true, false) && w.area.kind == KindScoped {
		w.area.dropSlow(wedgeDelta)
	}
}
