package memory

import (
	"errors"
	"runtime"
	"testing"
)

func TestNewModelDefaults(t *testing.T) {
	m := NewModel(Config{})
	if got := m.Immortal().Capacity(); got != DefaultImmortalSize {
		t.Errorf("immortal capacity = %d, want %d", got, DefaultImmortalSize)
	}
	if m.Heap().Kind() != KindHeap {
		t.Errorf("heap kind = %v", m.Heap().Kind())
	}
	if m.Immortal().Kind() != KindImmortal {
		t.Errorf("immortal kind = %v", m.Immortal().Kind())
	}
	if !m.Heap().Active() || !m.Immortal().Active() {
		t.Error("primordial areas must always be active")
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindHeap, "heap"},
		{KindImmortal, "immortal"},
		{KindScoped, "scoped"},
		{Kind(42), "Kind(42)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tt.kind), got, tt.want)
		}
	}
}

func TestImmortalAllocationBudget(t *testing.T) {
	m := NewModel(Config{ImmortalSize: 100})
	ctx := m.NewNoHeapContext()

	ref, err := ctx.AllocIn(m.Immortal(), 60)
	if err != nil {
		t.Fatalf("alloc 60: %v", err)
	}
	if ref.Len() != 60 {
		t.Errorf("ref len = %d, want 60", ref.Len())
	}
	if got := m.Immortal().Used(); got != 60 {
		t.Errorf("used = %d, want 60", got)
	}
	if got := m.Immortal().Free(); got != 40 {
		t.Errorf("free = %d, want 40", got)
	}

	if _, err := ctx.AllocIn(m.Immortal(), 41); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("over-budget alloc err = %v, want ErrOutOfMemory", err)
	}
	// Exact fit still works.
	if _, err := ctx.AllocIn(m.Immortal(), 40); err != nil {
		t.Errorf("exact-fit alloc: %v", err)
	}
}

var modelSink *Model

// TestImmortalCommitsWhatItHolds pins the immortal area as a budget rather
// than an arena: making a model commits none of it, each allocation is its
// own zeroed slice, and the budget is still enforced to the byte.
func TestImmortalCommitsWhatItHolds(t *testing.T) {
	const budget = 1 << 20
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			modelSink = NewModel(Config{ImmortalSize: budget})
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 4<<10 {
		t.Errorf("NewModel with a %d B immortal budget allocates %d B of Go heap, want < 4 KiB", budget, got)
	}

	m := NewModel(Config{ImmortalSize: budget})
	imm, ctx := m.Immortal(), m.NewNoHeapContext()
	var held [][]byte
	used := int64(0)
	for i, n := range []int{budget / 2, budget / 4, budget/4 - 16, 16} {
		ref, err := ctx.AllocIn(imm, n)
		if err != nil {
			t.Fatalf("alloc %d (%d B): %v", i, n, err)
		}
		b, err := ref.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != n || cap(b) != n {
			t.Errorf("alloc %d: len %d cap %d, want both %d", i, len(b), cap(b), n)
		}
		for j, x := range b {
			if x != 0 {
				t.Fatalf("alloc %d: byte %d is %d, want zeroed", i, j, x)
			}
		}
		for j := range b {
			b[j] = byte(i + 1)
		}
		held = append(held, b)
		used += int64(n)
		if imm.Used() != used || imm.Free() != budget-used {
			t.Errorf("after alloc %d: used %d free %d, want %d %d",
				i, imm.Used(), imm.Free(), used, budget-used)
		}
	}
	for i, b := range held {
		for j, x := range b {
			if x != byte(i+1) {
				t.Fatalf("alloc %d: byte %d is %d, want %d: immortal allocations overlap", i, j, x, i+1)
			}
		}
	}
	if _, err := ctx.AllocIn(imm, 1); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("one byte past the budget: err = %v, want ErrOutOfMemory", err)
	}
	if imm.Used() != budget || imm.Free() != 0 {
		t.Errorf("after the refusal: used %d free %d, want %d 0", imm.Used(), imm.Free(), budget)
	}
}

var areaSink *Area

// TestScopedCommitsWhatItHolds pins a scoped area's budget as a bound rather
// than an arena: making one commits none of it, carving k bytes commits
// O(k), reuse zeroes what was carved and stales its Refs, and the budget is
// still enforced to the byte. An area reclaimed through the same allocations
// stops allocating once a segment holds them all — also when they end just
// short of the budget, where a segment capped at what is left of the budget
// would be made again every cycle.
func TestScopedCommitsWhatItHolds(t *testing.T) {
	const budget = 1 << 20
	m := NewModel(Config{})
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			areaSink = m.NewLTScoped("s", budget)
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 4<<10 {
		t.Errorf("NewLTScoped with a %d B budget allocates %d B of Go heap, want < 4 KiB", budget, got)
	}

	a := m.NewLTScoped("s", budget)
	w, err := newWedge(a, m.Immortal())
	if err != nil {
		t.Fatal(err)
	}
	const k, piece = 64 << 10, 64
	refs := make([]Ref, 0, k/piece)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for len(refs) < cap(refs) {
		ref, err := a.alloc(piece)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := ref.Bytes()
		for j := range b {
			b[j] = 0xAB
		}
		refs = append(refs, ref)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*k {
		t.Errorf("carving %d B committed %d B of Go heap, want at most %d", k, got, 4*k)
	}
	if a.Used() != k {
		t.Errorf("used %d, want %d", a.Used(), k)
	}

	if !w.Reclaim(0) {
		t.Fatal("the sole wedge could not reclaim its area")
	}
	for i, ref := range refs {
		if _, err := ref.Bytes(); !errors.Is(err, ErrStale) {
			t.Fatalf("ref %d after reclaim: err = %v, want ErrStale", i, err)
		}
	}
	ref, err := a.alloc(k) // lands in the newest segment, whose head was dirtied
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ref.Bytes()
	for j, x := range b {
		if x != 0 {
			t.Fatalf("reused byte %d is %#x, want 0", j, x)
		}
	}
	if _, err := a.alloc(budget - k); err != nil {
		t.Errorf("allocation to exactly the budget: %v", err)
	}
	if _, err := a.alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("one byte past the budget: err = %v, want ErrOutOfMemory", err)
	}
	w.Release()

	for _, tc := range []struct {
		name     string
		capacity int64
		pattern  []int
	}{
		{"small", budget, []int{64, 200, 512}},
		{"near budget", 10<<10 + 300, []int{3 << 10, 3 << 10, 4 << 10}},
	} {
		a := m.NewLTScoped(tc.name, tc.capacity)
		w, err := newWedge(a, m.Immortal())
		if err != nil {
			t.Fatal(err)
		}
		cycle := func() {
			for _, n := range tc.pattern {
				if _, err := a.alloc(n); err != nil {
					t.Fatal(err)
				}
			}
			if !w.Reclaim(0) {
				t.Fatal("the sole wedge could not reclaim its area")
			}
		}
		for i := 0; i < 12; i++ { // growth stops within log2(capacity/1 KiB) cycles
			cycle()
		}
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("%s: a warm area reclaimed through one pattern allocates %v objects a cycle, want 0", tc.name, allocs)
		}
		w.Release()
	}
}

func TestHeapIsUnbounded(t *testing.T) {
	heap := NewModel(Config{}).Heap()
	for i := 0; i < 10; i++ {
		if _, err := heap.alloc(1 << 20); err != nil {
			t.Fatalf("heap alloc %d: %v", i, err)
		}
	}
}

func TestNegativeAllocRejected(t *testing.T) {
	m := NewModel(Config{})
	ctx := m.NewNoHeapContext()
	if _, err := ctx.Alloc(-1); err == nil {
		t.Error("negative alloc succeeded")
	}
}

func TestScopedAllocRequiresActive(t *testing.T) {
	m := NewModel(Config{})
	a := m.NewLTScoped("s", 128)
	if _, err := a.alloc(8); !errors.Is(err, ErrInactive) {
		t.Errorf("alloc in inactive scope err = %v, want ErrInactive", err)
	}
}

func TestScopedLifecycle(t *testing.T) {
	m := NewModel(Config{})
	ctx := m.NewNoHeapContext()
	a := m.NewLTScoped("s", 128)

	if a.Active() {
		t.Fatal("fresh scope must be inactive")
	}
	gen0 := a.Generation()

	var ref Ref
	err := ctx.Enter(a, func(c *Context) error {
		if !a.Active() {
			t.Error("scope inactive while entered")
		}
		if a.Parent() != m.Immortal() {
			t.Errorf("parent = %v, want immortal", a.Parent())
		}
		if a.Level() != 1 {
			t.Errorf("level = %d, want 1", a.Level())
		}
		var aerr error
		ref, aerr = c.Alloc(16)
		return aerr
	})
	if err != nil {
		t.Fatalf("enter: %v", err)
	}

	// After the last entrant leaves, the scope is reclaimed.
	if a.Active() {
		t.Error("scope still active after exit")
	}
	if a.Used() != 0 {
		t.Errorf("used = %d after reclaim, want 0", a.Used())
	}
	if a.Parent() != nil {
		t.Error("parent not cleared after reclaim")
	}
	if a.Level() != 0 {
		t.Errorf("level = %d after reclaim, want 0", a.Level())
	}
	if a.Generation() != gen0+1 {
		t.Errorf("generation = %d, want %d", a.Generation(), gen0+1)
	}
	if ref.Valid() {
		t.Error("ref still valid after reclaim")
	}
	if _, err := ref.Bytes(); !errors.Is(err, ErrStale) {
		t.Errorf("stale ref Bytes err = %v, want ErrStale", err)
	}
}

func TestScopedReuseAfterReclaim(t *testing.T) {
	m := NewModel(Config{})
	ctx := m.NewNoHeapContext()
	a := m.NewLTScoped("s", 64)

	for i := 0; i < 3; i++ {
		err := ctx.Enter(a, func(c *Context) error {
			ref, err := c.Alloc(64) // full budget each cycle
			if err != nil {
				return err
			}
			b, err := ref.Bytes()
			if err != nil {
				return err
			}
			// LT areas are zeroed on reuse.
			for j, v := range b {
				if v != 0 {
					t.Errorf("cycle %d byte %d = %d, want 0", i, j, v)
					break
				}
			}
			b[0] = 0xFF // dirty it for the next cycle's check
			return nil
		})
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
}

func TestNestedScopesLevels(t *testing.T) {
	m := NewModel(Config{})
	ctx := m.NewNoHeapContext()
	a := m.NewLTScoped("a", 64)
	b := m.NewLTScoped("b", 64)
	c := m.NewLTScoped("c", 64)

	err := ctx.Enter(a, func(c1 *Context) error {
		return c1.Enter(b, func(c2 *Context) error {
			return c2.Enter(c, func(c3 *Context) error {
				if a.Level() != 1 || b.Level() != 2 || c.Level() != 3 {
					t.Errorf("levels = %d,%d,%d want 1,2,3", a.Level(), b.Level(), c.Level())
				}
				if c.Parent() != b || b.Parent() != a || a.Parent() != m.Immortal() {
					t.Error("parent chain wrong")
				}
				if c3.Depth() != 4 {
					t.Errorf("depth = %d, want 4", c3.Depth())
				}
				return nil
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingleParentRule(t *testing.T) {
	m := NewModel(Config{})
	a := m.NewLTScoped("a", 64)
	b := m.NewLTScoped("b", 64)
	shared := m.NewLTScoped("shared", 64)

	ctx1 := m.NewNoHeapContext()
	errCh := make(chan error, 1)
	hold := make(chan struct{})
	release := make(chan struct{})

	go func() {
		errCh <- ctx1.Enter(a, func(c *Context) error {
			return c.Enter(shared, func(*Context) error {
				close(hold)
				<-release
				return nil
			})
		})
	}()
	<-hold

	// While shared is parented under a, entering it from b must fail.
	ctx2 := m.NewNoHeapContext()
	err := ctx2.Enter(b, func(c *Context) error {
		return c.Enter(shared, func(*Context) error { return nil })
	})
	if !errors.Is(err, ErrScopedCycle) {
		t.Errorf("second-parent enter err = %v, want ErrScopedCycle", err)
	}

	// Entering from the *same* parent concurrently is fine.
	ctx3 := m.NewNoHeapContext()
	err = ctx3.Enter(a, func(c *Context) error {
		return c.Enter(shared, func(*Context) error { return nil })
	})
	if err != nil {
		t.Errorf("same-parent concurrent enter: %v", err)
	}

	close(release)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	// After reclamation the parent is cleared, so b may now adopt it.
	err = ctx2.Enter(b, func(c *Context) error {
		return c.Enter(shared, func(*Context) error {
			if shared.Parent() != b {
				t.Errorf("parent = %v, want b", shared.Parent())
			}
			return nil
		})
	})
	if err != nil {
		t.Errorf("re-parenting after reclaim: %v", err)
	}
}

func TestAreaStringAndAccessors(t *testing.T) {
	m := NewModel(Config{})
	a := m.NewLTScoped("demo", 256)
	if a.Name() != "demo" {
		t.Errorf("name = %q", a.Name())
	}
	if a.Capacity() != 256 {
		t.Errorf("capacity = %d", a.Capacity())
	}
	ctx := m.NewNoHeapContext()
	if err := ctx.Enter(a, func(c *Context) error {
		if _, err := c.Alloc(10); err != nil {
			return err
		}
		if s, want := a.String(), "demo(scoped, 10/256 bytes, level 1, entrants 1, wedges 0, generation 0)"; s != want {
			t.Errorf("String() = %q, want %q", s, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if s, want := a.String(), "demo(scoped, 0/256 bytes, level 0, entrants 0, wedges 0, generation 1)"; s != want {
		t.Errorf("String() after reclaim = %q, want %q", s, want)
	}
}
