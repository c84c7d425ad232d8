package memory

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestNoHeapContext(t *testing.T) {
	m := NewModel(Config{})
	ctx := m.NewNoHeapContext()
	if ctx.Current() != m.Immortal() {
		t.Error("no-heap context must start in immortal")
	}
	a := m.NewLTScoped("s", 64)
	err := ctx.Enter(a, func(c *Context) error {
		if a.Parent() != m.Immortal() {
			t.Errorf("parent = %v, want immortal", a.Parent())
		}
		_, err := c.Alloc(8)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExecuteInAreaRequiresStackMembership(t *testing.T) {
	m := NewModel(Config{})
	ctx := m.NewNoHeapContext()
	a := m.NewLTScoped("a", 64)
	b := m.NewLTScoped("b", 64)

	err := ctx.Enter(a, func(c *Context) error {
		// b is not on the stack.
		if err := c.ExecuteInArea(b, func(*Context) error { return nil }); !errors.Is(err, ErrNotOnStack) {
			t.Errorf("execute in off-stack scope err = %v, want ErrNotOnStack", err)
		}
		// Primordial areas are always reachable.
		if err := c.ExecuteInArea(m.Immortal(), func(ic *Context) error {
			if ic.Current() != m.Immortal() {
				t.Error("current != immortal inside ExecuteInArea")
			}
			return nil
		}); err != nil {
			t.Errorf("execute in immortal: %v", err)
		}
		// And so is an outer scope already on the stack.
		return c.Enter(b, func(c2 *Context) error {
			return c2.ExecuteInArea(a, func(ic *Context) error {
				ref, err := ic.Alloc(8)
				if err != nil {
					return err
				}
				if ref.Area() != a {
					t.Error("allocation did not land in outer scope")
				}
				return nil
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllocInConvenience(t *testing.T) {
	m := NewModel(Config{})
	ctx := m.NewNoHeapContext()
	ref, err := ctx.AllocIn(m.Immortal(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Area() != m.Immortal() || ref.Len() != 12 {
		t.Errorf("ref = %v area %v", ref.Len(), ref.Area().Name())
	}
}

// Property: for any sequence of nested enters, the scope level always equals
// the nesting depth and reclamation restores every area to level 0.
func TestPropertyNestingLevels(t *testing.T) {
	f := func(depthSeed uint8) bool {
		depth := int(depthSeed%8) + 1
		m := NewModel(Config{})
		ctx := m.NewNoHeapContext()
		areas := make([]*Area, depth)
		for i := range areas {
			areas[i] = m.NewLTScoped("s", 32)
		}
		var rec func(c *Context, i int) error
		rec = func(c *Context, i int) error {
			if i == depth {
				for j, a := range areas {
					if a.Level() != j+1 {
						return errors.New("level mismatch")
					}
				}
				return nil
			}
			return c.Enter(areas[i], func(nc *Context) error { return rec(nc, i+1) })
		}
		if err := rec(ctx, 0); err != nil {
			return false
		}
		for _, a := range areas {
			if a.Level() != 0 || a.Active() || a.Used() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: allocations never exceed the budget, and the sum of allocation
// sizes equals Used() while the scope is active.
func TestPropertyBudgetAccounting(t *testing.T) {
	f := func(sizes []uint8) bool {
		const budget = 1024
		m := NewModel(Config{})
		ctx := m.NewNoHeapContext()
		a := m.NewLTScoped("s", budget)
		ok := true
		err := ctx.Enter(a, func(c *Context) error {
			var want int64
			for _, s := range sizes {
				n := int(s)
				ref, err := c.Alloc(n)
				if err != nil {
					if !errors.Is(err, ErrOutOfMemory) {
						ok = false
					}
					if want+int64(n) <= budget {
						ok = false // spurious OOM
					}
					continue
				}
				want += int64(n)
				if ref.Len() != n {
					ok = false
				}
			}
			if a.Used() != want || want > budget {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
