package memory

import (
	"errors"
	"slices"
	"testing"
)

// TestEnterChainEquivalentToNestedEnter checks that EnterChain produces the
// same stack, allocation area, and reclamation behaviour as the equivalent
// nested Enter calls.
func TestEnterChainEquivalentToNestedEnter(t *testing.T) {
	m := NewModel(Config{})
	a := m.NewLTScoped("a", 4096)
	b := m.NewLTScoped("b", 4096)
	c := m.NewLTScoped("c", 4096)

	ctx := m.NewNoHeapContext()
	err := ctx.EnterChain([]*Area{a, b, c}, func(ic *Context) error {
		if ic.Current() != c {
			t.Errorf("current area = %q, want %q", ic.Current().Name(), c.Name())
		}
		if ic.Depth() != 4 { // immortal + a + b + c
			t.Errorf("depth = %d, want 4", ic.Depth())
		}
		if _, err := ic.Alloc(100); err != nil {
			t.Errorf("alloc in chained scope: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Depth() != 1 {
		t.Fatalf("depth after EnterChain = %d, want 1", ctx.Depth())
	}
	// All three scopes were exited by their last holder and reclaimed.
	if used := c.Used(); used != 0 {
		t.Errorf("innermost scope holds %d bytes after exit; want reclaimed", used)
	}
}

// TestEnterChainUnwindsOnFailure checks a mid-chain failure exits the areas
// already entered.
func TestEnterChainUnwindsOnFailure(t *testing.T) {
	m := NewModel(Config{})
	a := m.NewLTScoped("a", 4096)
	b := m.NewLTScoped("b", 4096)

	// Give b a different active parent so entering it under a violates the
	// single-parent rule.
	other := m.NewNoHeapContext()
	hold := make(chan struct{})
	held := make(chan struct{})
	go func() {
		_ = other.Enter(b, func(*Context) error { close(held); <-hold; return nil })
	}()
	<-held

	ctx := m.NewNoHeapContext()
	err := ctx.EnterChain([]*Area{a, b}, func(*Context) error {
		t.Error("fn ran despite a failed chain entry")
		return nil
	})
	if !errors.Is(err, ErrScopedCycle) {
		t.Fatalf("err = %v, want ErrScopedCycle", err)
	}
	if ctx.Depth() != 1 {
		t.Fatalf("depth after failed EnterChain = %d, want 1 (a exited)", ctx.Depth())
	}
	close(hold)
}

// TestEnterBelowEntersOnlyWhatIsMissing walks the handoff pattern from every
// place a sender can stand relative to the chain p ▸ b ▸ c: the helper
// executes in the deepest area the stack shares with the chain (or in the
// primordial area when it shares none), enters the levels below it and no
// other, and hands the stack back as it found it — each level keeps its one
// parent throughout.
func TestEnterBelowEntersOnlyWhatIsMissing(t *testing.T) {
	m := NewModel(Config{})
	p := m.NewLTScoped("p", 4096)
	a := m.NewLTScoped("a", 4096) // b's sibling
	b := m.NewLTScoped("b", 4096)
	c := m.NewLTScoped("c", 4096)
	x := m.NewLTScoped("x", 4096) // unrelated
	chain := []*Area{p, b, c}

	// Hold the chain open the way components do, so parents are fixed.
	w1, err := newWedge(p, m.Immortal())
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Release()
	w2, err := newWedge(b, p)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Release()
	w3, err := newWedge(c, b)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Release()

	for _, tc := range []struct {
		name   string
		stand  []*Area // where the sender stands, entered outermost first
		enters int64
		depth  int // stack depth inside fn
	}{
		{"fresh context", nil, 3, 4},
		{"in the receiver's parent", []*Area{p, b}, 1, 4},
		{"in the receiver itself", []*Area{p, b, c}, 0, 4},
		{"in a sibling of b", []*Area{p, a}, 2, 6},  // … a, p again, b, c
		{"in an unrelated scope", []*Area{x}, 3, 6}, // … x, immortal again, p, b, c
		{"in an ancestor, not current", []*Area{p, b, c, x}, 0, 6},
	} {
		ctx := m.NewNoHeapContext()
		err := ctx.EnterChain(tc.stand, func(ctx *Context) error {
			before := slices.Clone(ctx.stack)
			enters := scopeEnters.Value()
			err := ctx.EnterBelow(chain, func(ic *Context) error {
				if ic.Current() != c {
					t.Errorf("%s: current area %q, want c", tc.name, ic.Current().Name())
				}
				if ic.Depth() != tc.depth {
					t.Errorf("%s: depth %d, want %d", tc.name, ic.Depth(), tc.depth)
				}
				if _, err := ic.Alloc(16); err != nil {
					t.Errorf("%s: alloc: %v", tc.name, err)
				}
				return nil
			})
			if d := scopeEnters.Value() - enters; d != tc.enters {
				t.Errorf("%s: entered %d scopes, want %d", tc.name, d, tc.enters)
			}
			if after := ctx.stack; !slices.Equal(before, after) {
				t.Errorf("%s: scope stack %v became %v", tc.name, before, after)
			}
			return err
		})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// pinChain creates one scoped area per name and pins each under the one
// before it (the first under immortal memory), the way an open component and
// its open ancestors hold their areas; the wedges are released at cleanup.
func pinChain(t *testing.T, m *Model, names ...string) []*Area {
	t.Helper()
	chain := make([]*Area, len(names))
	from := m.Immortal()
	for i, name := range names {
		a := m.NewLTScoped(name, 4096)
		w, err := newWedge(a, from)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Release)
		chain[i], from = a, a
	}
	return chain
}

// TestEnterBelowMovesNoHolder: a pinned enter writes no area word. Inside fn
// every level of the chain is held by its wedge alone, and on the way out
// nothing is reclaimed — the generation stands and the allocation fn made
// is still there.
func TestEnterBelowMovesNoHolder(t *testing.T) {
	m := NewModel(Config{})
	chain := pinChain(t, m, "p", "b", "c")
	var gens []uint64
	for _, a := range chain {
		gens = append(gens, a.Generation())
	}
	ctx := m.NewNoHeapContext()
	err := ctx.EnterBelow(chain, func(ic *Context) error {
		for _, a := range chain {
			if h := a.holders(); h != wedgeDelta {
				t.Errorf("%s: holders %#x inside fn, want its wedge alone (%#x)", a.Name(), h, wedgeDelta)
			}
		}
		_, err := ic.Alloc(64)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range chain {
		if h, g := a.holders(), a.Generation(); h != wedgeDelta || g != gens[i] {
			t.Errorf("%s after EnterBelow: holders %#x generation %d, want %#x and %d", a.Name(), h, g, wedgeDelta, gens[i])
		}
	}
	if used := chain[2].Used(); used != 64 {
		t.Errorf("leaf holds %d bytes after EnterBelow, want the 64 fn allocated", used)
	}
}

// TestEnterBelowRefusesUnpinnedLevel: a level no wedge holds is refused
// with ErrInactive before fn runs — whether nothing holds it at all or
// another thread's entry keeps it active — and no holder count moves.
func TestEnterBelowRefusesUnpinnedLevel(t *testing.T) {
	m := NewModel(Config{})
	chain := pinChain(t, m, "p", "b")
	loose := m.NewLTScoped("loose", 4096)
	unpinned := append(slices.Clone(chain), loose)
	try := func(name string) {
		ctx := m.NewNoHeapContext()
		before := loose.holders()
		err := ctx.EnterBelow(unpinned, func(*Context) error {
			t.Errorf("%s: fn ran under an unpinned level", name)
			return nil
		})
		if !errors.Is(err, ErrInactive) {
			t.Errorf("%s: err = %v, want ErrInactive", name, err)
		}
		if ctx.Depth() != 1 || loose.holders() != before {
			t.Errorf("%s: depth %d, holders %#x → %#x after the refusal", name, ctx.Depth(), before, loose.holders())
		}
	}
	try("never entered")
	other := m.NewNoHeapContext()
	if err := other.EnterChain(unpinned, func(*Context) error {
		try("active through an entrant")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestEnterBelowRefusesLevelParentedElsewhere: a pinned level whose parent
// is not the level before it in the chain is refused with ErrScopedCycle.
func TestEnterBelowRefusesLevelParentedElsewhere(t *testing.T) {
	m := NewModel(Config{})
	chain := pinChain(t, m, "p", "b")
	elsewhere := pinChain(t, m, "x", "c") // c is pinned under x, not b
	ctx := m.NewNoHeapContext()
	err := ctx.EnterBelow(append(slices.Clone(chain), elsewhere[1]), func(*Context) error {
		t.Error("fn ran under a level parented elsewhere")
		return nil
	})
	if !errors.Is(err, ErrScopedCycle) {
		t.Fatalf("err = %v, want ErrScopedCycle", err)
	}
	if ctx.Depth() != 1 {
		t.Errorf("depth %d after the refusal, want 1", ctx.Depth())
	}
}

// TestEnterBelowRestoresStack: whatever way fn leaves — an error, a panic, or
// not running because a level was refused — the scope stack is the caller's
// again, including the shared ancestor pushed for a sender in a sibling
// scope, and no area's holders moved.
func TestEnterBelowRestoresStack(t *testing.T) {
	m := NewModel(Config{})
	chain := pinChain(t, m, "p", "b", "c")
	sibling := m.NewLTScoped("a", 4096) // b's sibling, where the sender stands
	broken := append(slices.Clone(chain), m.NewLTScoped("unpinned", 4096))
	boom := errors.New("handler failed")
	for _, tc := range []struct {
		name  string
		chain []*Area
		fn    func(*Context) error
		want  error // nil: fn panics
	}{
		{"fn error", chain, func(*Context) error { return boom }, boom},
		{"fn panic", chain, func(*Context) error { panic("handler") }, nil},
		{"refused level", broken, func(*Context) error { return nil }, ErrInactive},
	} {
		ctx := m.NewNoHeapContext()
		err := ctx.EnterChain([]*Area{chain[0], sibling}, func(ctx *Context) error {
			before := slices.Clone(ctx.stack)
			var err error
			panicked := func() (panicked bool) {
				defer func() { panicked = recover() != nil }()
				err = ctx.EnterBelow(tc.chain, tc.fn)
				return false
			}()
			switch {
			case tc.want == nil && !panicked:
				t.Errorf("%s: the panic did not come through", tc.name)
			case tc.want != nil && !errors.Is(err, tc.want):
				t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
			}
			if after := ctx.stack; !slices.Equal(before, after) {
				t.Errorf("%s: scope stack %v became %v", tc.name, before, after)
			}
			for _, a := range chain[1:] {
				if h := a.holders(); h != wedgeDelta {
					t.Errorf("%s: %s holders %#x, want its wedge alone", tc.name, a.Name(), h)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}
