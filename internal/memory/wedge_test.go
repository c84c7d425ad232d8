package memory

import (
	"errors"
	"sync"
	"testing"
)

func TestWedgeKeepsScopeAlive(t *testing.T) {
	m := NewModel(Config{})
	ctx := m.NewContext()
	a := m.NewLTScoped("a", 64)

	w, err := Pin(a, m.Heap())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Active() {
		t.Fatal("pinned area inactive")
	}
	if a.Parent() != m.Heap() || a.Level() != 1 {
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

	wa, err := Pin(a, m.Heap())
	if err != nil {
		t.Fatal(err)
	}
	defer wa.Release()
	wb, err := Pin(b, m.Heap())
	if err != nil {
		t.Fatal(err)
	}
	defer wb.Release()

	ws, err := Pin(shared, a)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Release()

	if _, err := Pin(shared, b); !errors.Is(err, ErrScopedCycle) {
		t.Errorf("second-parent pin err = %v, want ErrScopedCycle", err)
	}
	// Same parent pin is fine.
	ws2, err := Pin(shared, a)
	if err != nil {
		t.Errorf("same-parent pin: %v", err)
	} else {
		ws2.Release()
	}
}

func TestWedgeReleaseIdempotent(t *testing.T) {
	m := NewModel(Config{})
	a := m.NewLTScoped("a", 64)
	w1, err := Pin(a, m.Heap())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Pin(a, m.Heap())
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
	w, err := Pin(m.Immortal(), m.Heap())
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

func TestWedgeRunsFinalizers(t *testing.T) {
	m := NewModel(Config{})
	a := m.NewLTScoped("a", 64)
	w, err := Pin(a, m.Heap())
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	a.AddFinalizer(func() { ran = true })
	w.Release()
	if !ran {
		t.Error("finalizer not run on wedge-triggered reclamation")
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
		other, err := Pin(a, m.Immortal())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Pin(a, m.Immortal(), 128); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if a.Used() != 128 || a.Allocations() != 1 {
			t.Fatalf("round %d: header charge used %d bytes in %d allocations, want 128 in 1", round, a.Used(), a.Allocations())
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
