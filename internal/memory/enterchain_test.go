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
	other := m.NewContext()
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

// TestEnterChainRejectsHeapForNoHeap checks the no-heap rule applies to
// every link of the chain.
func TestEnterChainRejectsHeapForNoHeap(t *testing.T) {
	m := NewModel(Config{})
	a := m.NewLTScoped("a", 4096)
	ctx := m.NewNoHeapContext()
	err := ctx.EnterChain([]*Area{a, m.Heap()}, func(*Context) error { return nil })
	if !errors.Is(err, ErrHeapAccess) {
		t.Fatalf("err = %v, want ErrHeapAccess", err)
	}
	if ctx.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", ctx.Depth())
	}
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
	w1, err := Pin(p, m.Immortal())
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Release()
	w2, err := Pin(b, p)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Release()
	w3, err := Pin(c, b)
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
			before := ctx.Stack()
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
			if after := ctx.Stack(); !slices.Equal(before, after) {
				t.Errorf("%s: scope stack %v became %v", tc.name, before, after)
			}
			return err
		})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
