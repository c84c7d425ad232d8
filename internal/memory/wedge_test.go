package memory

import (
	"errors"
	"sync"
	"testing"
)

// newWedge pins a on a wedge of its own, as if entered from `from`.
func newWedge(a, from *Area) (*Wedge, error) {
	w := new(Wedge)
	if err := w.Pin(a, from, 0); err != nil {
		return nil, err
	}
	return w, nil
}

func TestWedgeKeepsScopeAlive(t *testing.T) {
	m := NewModel(Config{})
	ctx := m.NewNoHeapContext()
	a := m.NewLTScoped("a", 64)

	w, err := newWedge(a, m.Immortal())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Active() {
		t.Fatal("pinned area inactive")
	}
	if a.Parent() != m.Immortal() || a.Level() != 1 {
		t.Errorf("parent/level = %v/%d", a.Parent(), a.Level())
	}

	// A context can enter and leave without triggering reclamation.
	var ref Ref
	err = ctx.Enter(a, func(c *Context) error {
		var aerr error
		ref, aerr = c.Alloc(8)
		return aerr
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Valid() {
		t.Error("ref invalidated while wedge held")
	}

	w.Release()
	if a.Active() {
		t.Error("area active after wedge release")
	}
	if ref.Valid() {
		t.Error("ref valid after reclamation")
	}
}

func TestWedgeSingleParentRule(t *testing.T) {
	m := NewModel(Config{})
	a := m.NewLTScoped("a", 64)
	b := m.NewLTScoped("b", 64)
	shared := m.NewLTScoped("s", 64)

	wa, err := newWedge(a, m.Immortal())
	if err != nil {
		t.Fatal(err)
	}
	defer wa.Release()
	wb, err := newWedge(b, m.Immortal())
	if err != nil {
		t.Fatal(err)
	}
	defer wb.Release()

	ws, err := newWedge(shared, a)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Release()

	if _, err := newWedge(shared, b); !errors.Is(err, ErrScopedCycle) {
		t.Errorf("second-parent pin err = %v, want ErrScopedCycle", err)
	}
	// Same parent pin is fine.
	ws2, err := newWedge(shared, a)
	if err != nil {
		t.Errorf("same-parent pin: %v", err)
	} else {
		ws2.Release()
	}
}

func TestWedgeReleaseIdempotent(t *testing.T) {
	m := NewModel(Config{})
	a := m.NewLTScoped("a", 64)
	w1, err := newWedge(a, m.Immortal())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := newWedge(a, m.Immortal())
	if err != nil {
		t.Fatal(err)
	}
	w1.Release()
	w1.Release() // must not double-decrement and reclaim under w2
	if !a.Active() {
		t.Fatal("area reclaimed while w2 holds it")
	}
	w2.Release()
	if a.Active() {
		t.Error("area active after final release")
	}
}

func TestWedgeOnPrimordialIsNoOp(t *testing.T) {
	m := NewModel(Config{})
	w, err := newWedge(m.Immortal(), m.Heap())
	if err != nil {
		t.Fatal(err)
	}
	if w.Area() != m.Immortal() {
		t.Error("wedge area accessor wrong")
	}
	w.Release()
	if !m.Immortal().Active() {
		t.Error("immortal deactivated by wedge release")
	}
}

// The last wedge's release reclaims the area: a Ref into it goes stale.
func TestWedgeReleaseReclaims(t *testing.T) {
	m := NewModel(Config{})
	a := m.NewLTScoped("a", 64)
	w, err := newWedge(a, m.Immortal())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := a.alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	w.Release()
	if _, err := ref.Bytes(); !errors.Is(err, ErrStale) {
		t.Errorf("ref into the area after the wedge-triggered reclamation: err = %v, want ErrStale", err)
	}
}

// An embedded wedge is re-pinned once per revival of its owner, and the
// owner's two reclaim paths (the quiescence winner and a forced dispose)
// may both call Release on the same hold. Every round must drop the area
// exactly once — a double drop would reclaim it under the second wedge —
// and charge the header in the same step as the pin.
func TestWedgeRepinRacingReleases(t *testing.T) {
	m := NewModel(Config{})
	pool, err := m.NewScopePool(ScopePoolConfig{Name: "p", AreaSize: 256, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	var w Wedge // the zero wedge holds nothing
	w.Release()
	for round := 0; round < 2000; round++ {
		a, err := pool.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		other, err := newWedge(a, m.Immortal())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Pin(a, m.Immortal(), 128); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if a.Used() != 128 {
			t.Fatalf("round %d: header charge used %d bytes, want 128", round, a.Used())
		}
		if err := w.Pin(a, m.Immortal(), 0); err == nil {
			t.Fatal("an armed wedge pinned again")
		}
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.Release()
			}()
		}
		wg.Wait()
		if !a.Active() {
			t.Fatalf("round %d: racing releases dropped the area more than once", round)
		}
		other.Release()
		if a.Active() {
			t.Fatalf("round %d: area still held after its last wedge", round)
		}
	}
	if created, _, free := pool.Stats(); int64(free) != created {
		t.Errorf("pool at rest: %d of %d areas free", free, created)
	}
}

// A header that does not fit fails the pin before the holder count moves.
func TestWedgePinHeaderMustFit(t *testing.T) {
	m := NewModel(Config{})
	a := m.NewLTScoped("a", 64)
	var w Wedge
	if err := w.Pin(a, m.Immortal(), 65); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if a.Active() {
		t.Error("a failed pin left the area held")
	}
	if err := w.Pin(a, m.Immortal(), 64); err != nil {
		t.Fatal(err)
	}
	w.Release()
}

// TestWedgeReclaimInPlace pins the in-place reclaim a parked component shell
// makes: the area stays held and parented, its generation moves by one (a Ref
// into the old contents goes stale), its bytes are zeroed
// and the header is charged again. With another holder it refuses and
// changes nothing, and an unarmed wedge reclaims nothing.
func TestWedgeReclaimInPlace(t *testing.T) {
	m := NewModel(Config{})
	pool, err := m.NewScopePool(ScopePoolConfig{Name: "p", AreaSize: 256, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	parent := m.NewLTScoped("parent", 64)
	hold, err := newWedge(parent, m.Immortal())
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Release()
	var w Wedge
	if err := w.Pin(a, parent, 32); err != nil {
		t.Fatal(err)
	}
	var ref Ref
	if err := m.NewNoHeapContext().EnterChain([]*Area{parent, a}, func(c *Context) error {
		ref, err = c.Alloc(16)
		if err == nil {
			b, _ := ref.Bytes()
			copy(b, "request")
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	gen := a.Generation()
	if !w.Reclaim(32) {
		t.Fatal("the sole wedge could not reclaim its area")
	}
	if a.Generation() != gen+1 || ref.Valid() {
		t.Errorf("after reclaim: generation +%d, old ref valid %v; want +1, false",
			a.Generation()-gen, ref.Valid())
	}
	if !a.Pinned() || a.Parent() != parent || a.Level() != 2 || a.Used() != 32 {
		t.Errorf("after reclaim: pinned %v, parent %v, level %d, %d bytes; want the header alone, parent and level kept",
			a.Pinned(), a.Parent(), a.Level(), a.Used())
	}
	for i, b := range a.buf[32:48] {
		if b != 0 {
			t.Fatalf("byte %d of the old contents survived the reclaim", 32+i)
		}
	}
	if _, _, free := pool.Stats(); free != 0 {
		t.Error("an in-place reclaim returned the area to its pool")
	}

	other, err := newWedge(a, parent)
	if err != nil {
		t.Fatal(err)
	}
	if w.Reclaim(32) || a.Generation() != gen+1 || a.Used() != 32 {
		t.Error("reclaimed with a second holder")
	}
	other.Release()
	w.Release()
	if w.Reclaim(0) || a.Generation() != gen+2 {
		t.Error("a released wedge reclaimed, or the last release did not")
	}
	if _, _, free := pool.Stats(); free != 1 {
		t.Error("the last release did not return the area to its pool")
	}
}
