package memory

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// scratchFixture is a component-like area with an overflow pool beside it.
func scratchFixture(t *testing.T, areaSize, poolAreaSize int64) (*Model, *Area, *ScopePool) {
	t.Helper()
	m := NewModel(Config{})
	pool, err := m.NewScopePool(ScopePoolConfig{Name: "overflow", AreaSize: poolAreaSize, Count: 2, Grow: true})
	if err != nil {
		t.Fatal(err)
	}
	return m, m.NewLTScoped("component", areaSize), pool
}

// A buffer that fits the area its thread stands in is carved there: no pool
// traffic, no scope entered, nothing counted as overflow.
func TestScratchFitsCurrentArea(t *testing.T) {
	m, comp, pool := scratchFixture(t, 1024, 4096)
	enters := telemetry.NewCounter("scope_enter_total")
	ctx := m.NewNoHeapContext()
	err := ctx.Enter(comp, func(ic *Context) error {
		e0, o0 := enters.Value(), scopeOverflows.Value()
		for i := 0; i < 4; i++ {
			if err := ic.Scratch(pool, 256, func(ref Ref) error {
				if ref.Area() != comp {
					t.Errorf("buffer %d lives in %q, want the current area", i, ref.Area().Name())
				}
				if ic.Current() != comp {
					t.Errorf("current area inside fn = %q", ic.Current().Name())
				}
				b, err := ref.Bytes()
				if err != nil || len(b) != 256 {
					t.Errorf("buffer: %d bytes, err %v", len(b), err)
				}
				return nil
			}); err != nil {
				return err
			}
		}
		if got := comp.Used(); got != 1024 {
			t.Errorf("component area holds %d bytes, want 1024", got)
		}
		if d := enters.Value() - e0; d != 0 {
			t.Errorf("%d scopes entered for buffers that fit", d)
		}
		if d := scopeOverflows.Value() - o0; d != 0 {
			t.Errorf("%d overflows counted for buffers that fit", d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, reused, _ := pool.Stats(); reused != 0 {
		t.Errorf("overflow pool served %d areas", reused)
	}
}

// A buffer the current area has no room for — but the pool's areas have —
// lives in a pooled area entered beneath it for the length of fn, and that
// area is back in the pool afterwards. One larger than both fails with the
// nested area's ErrOutOfMemory, and that area goes back too.
func TestScratchOverflowsToNestedArea(t *testing.T) {
	m, comp, pool := scratchFixture(t, 1024, 4096)
	enters := telemetry.NewCounter("scope_enter_total")
	ctx := m.NewNoHeapContext()
	err := ctx.Enter(comp, func(ic *Context) error {
		if _, err := ic.Alloc(900); err != nil {
			return err
		}
		e0, o0 := enters.Value(), scopeOverflows.Value()
		var nested *Area
		if err := ic.Scratch(pool, 512, func(ref Ref) error {
			nested = ref.Area()
			if nested == comp || nested.Parent() != comp {
				t.Errorf("buffer lives in %q (parent %v), want a pooled area under the component's", nested.Name(), nested.Parent())
			}
			if ic.Current() != nested {
				t.Errorf("current area inside fn = %q, want the nested one", ic.Current().Name())
			}
			return nil
		}); err != nil {
			return err
		}
		if ic.Current() != comp {
			t.Errorf("current area after Scratch = %q", ic.Current().Name())
		}
		if nested.Active() || nested.Used() != 0 {
			t.Errorf("nested area not reclaimed: %v", nested)
		}
		if d := enters.Value() - e0; d != 1 {
			t.Errorf("%d scopes entered for one overflow, want 1", d)
		}
		if d := scopeOverflows.Value() - o0; d != 1 {
			t.Errorf("%d overflows counted, want 1", d)
		}
		if got := comp.Used(); got != 900 {
			t.Errorf("component area holds %d bytes after an overflow, want 900", got)
		}

		ran := false
		err := ic.Scratch(pool, 8192, func(Ref) error { ran = true; return nil })
		if !errors.Is(err, ErrOutOfMemory) || !strings.Contains(err.Error(), "overflow#") {
			t.Errorf("oversized buffer: err = %v, want the nested area's ErrOutOfMemory", err)
		}
		if ran {
			t.Error("fn ran without its buffer")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if created, reused, free := pool.Stats(); created != 2 || reused != 2 || free != 2 {
		t.Errorf("overflow pool: created %d reused %d free %d, want 2 2 2", created, reused, free)
	}
}

// fn's error is Scratch's, on either path; a thread in a primordial area
// always takes the pool (immortal memory would keep the bytes for good); an
// exhausted pool is reported, not waited for.
func TestScratchEdges(t *testing.T) {
	m, comp, pool := scratchFixture(t, 1024, 4096)
	ctx := m.NewNoHeapContext()
	boom := errors.New("boom")
	_ = ctx.Enter(comp, func(ic *Context) error {
		for _, n := range []int{16, 2048} {
			if err := ic.Scratch(pool, n, func(Ref) error { return boom }); err != boom {
				t.Errorf("n=%d: err = %v, want fn's own", n, err)
			}
		}
		return nil
	})
	before := m.Immortal().Used()
	if err := ctx.Scratch(pool, 64, func(ref Ref) error {
		if ref.Area().Kind() != KindScoped {
			t.Errorf("buffer of an immortal thread lives in %q", ref.Area().Name())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.Immortal().Used(); got != before {
		t.Errorf("immortal grew %d -> %d bytes", before, got)
	}

	fixed, err := m.NewScopePool(ScopePoolConfig{Name: "fixed", AreaSize: 256, Count: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Scratch(fixed, 64, func(Ref) error { return nil }); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("empty fixed pool: err = %v, want ErrPoolExhausted", err)
	}
}

// The overflow decision builds no error and allocates nothing, on the hit
// and on the miss.
func TestScratchAllocFree(t *testing.T) {
	m, comp, pool := scratchFixture(t, 1<<20, 4096)
	ctx := m.NewNoHeapContext()
	fn := func(Ref) error { return nil }
	_ = ctx.Enter(comp, func(ic *Context) error {
		if a := testing.AllocsPerRun(200, func() { _ = ic.Scratch(pool, 64, fn) }); a != 0 {
			t.Errorf("buffer that fits: %v allocs/op, want 0", a)
		}
		if _, err := ic.Alloc(int(comp.Free()) - 8); err != nil {
			t.Fatal(err)
		}
		o0 := scopeOverflows.Value()
		if a := testing.AllocsPerRun(200, func() { _ = ic.Scratch(pool, 64, fn) }); a != 0 {
			t.Errorf("overflow path: %v allocs/op, want 0", a)
		}
		if d := scopeOverflows.Value() - o0; d != 201 {
			t.Errorf("overflows counted = %d, want 201 (AllocsPerRun's warm-up included)", d)
		}
		return nil
	})
}

// Threads that share one held-open area fill it exactly to its capacity and
// not a byte beyond; from then on every buffer overflows, every call still
// succeeds, and the pool stays as small as the overlap.
func TestScratchSharedAreaFillsThenOverflows(t *testing.T) {
	const (
		workers = 8
		rounds  = 500
		size    = 96
	)
	m, comp, pool := scratchFixture(t, 8192, 1024)
	hold, err := newWedge(comp, m.Immortal())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := m.NewNoHeapContext()
			_ = ctx.Enter(comp, func(ic *Context) error {
				for i := 0; i < rounds; i++ {
					if err := ic.Scratch(pool, size, func(ref Ref) error {
						b, err := ref.Bytes()
						if err != nil {
							return err
						}
						for j := range b {
							if b[j] != 0 {
								t.Errorf("worker %d round %d: buffer byte %d not zero: shared with another thread", w, i, j)
								break
							}
							b[j] = byte(w + 1)
						}
						return nil
					}); err != nil {
						t.Errorf("worker %d round %d: %v", w, i, err)
						return nil
					}
					if used := comp.Used(); used > comp.Capacity() {
						t.Errorf("shared area holds %d of %d bytes", used, comp.Capacity())
					}
				}
				return nil
			})
		}(w)
	}
	wg.Wait()
	if used, fits := comp.Used(), comp.Capacity()/size*size; used != fits {
		t.Errorf("shared area holds %d bytes after the storm, want it full at %d", used, fits)
	}
	// Every buffer either fit or drew one area: reused from the free list, or
	// created beyond the two the pool started with.
	created, reused, _ := pool.Stats()
	if got, want := reused+created-2, int64(workers*rounds)-comp.Capacity()/size; got != want {
		t.Errorf("overflow pool served %d areas, want %d", got, want)
	}
	if created > workers {
		t.Errorf("overflow pool grew to %d areas for %d threads", created, workers)
	}
	hold.Release()
	if comp.Used() != 0 {
		t.Errorf("shared area not reclaimed after its last holder left: %v", comp)
	}
}
