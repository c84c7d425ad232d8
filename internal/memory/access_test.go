package memory

import (
	"errors"
	"testing"
)

// TestAccessRulesTable1 reproduces Table 1 of the paper: the scope structure
// of Fig. 3 (A entered from an immortal context, with B and C siblings
// inside A) and the full from×to access matrix.
func TestAccessRulesTable1(t *testing.T) {
	m := NewModel(Config{})
	ctx := m.NewNoHeapContext()
	a := m.NewLTScoped("A", 64)
	b := m.NewLTScoped("B", 64)
	c := m.NewLTScoped("C", 64)

	err := ctx.Enter(a, func(c1 *Context) error {
		// Pin B and C open as siblings under A, like two real-time threads
		// parked in them.
		wb, err := newWedge(b, a)
		if err != nil {
			return err
		}
		defer wb.Release()
		wc, err := newWedge(c, a)
		if err != nil {
			return err
		}
		defer wc.Release()

		heap, imm := m.Heap(), m.Immortal()
		tests := []struct {
			name     string
			from, to *Area
			want     bool
		}{
			// from Heap
			{"heap->heap", heap, heap, true},
			{"heap->immortal", heap, imm, true},
			{"heap->A", heap, a, false},
			{"heap->B", heap, b, false},
			{"heap->C", heap, c, false},
			// from Immortal
			{"immortal->heap", imm, heap, true},
			{"immortal->immortal", imm, imm, true},
			{"immortal->A", imm, a, false},
			{"immortal->B", imm, b, false},
			{"immortal->C", imm, c, false},
			// from A
			{"A->heap", a, heap, true},
			{"A->immortal", a, imm, true},
			{"A->A", a, a, true},
			{"A->B", a, b, false},
			{"A->C", a, c, false},
			// from B
			{"B->heap", b, heap, true},
			{"B->immortal", b, imm, true},
			{"B->A", b, a, true},
			{"B->B", b, b, true},
			{"B->C", b, c, false}, // sibling access forbidden
			// from C
			{"C->heap", c, heap, true},
			{"C->immortal", c, imm, true},
			{"C->A", c, a, true},
			{"C->B", c, b, false}, // sibling access forbidden
			{"C->C", c, c, true},
		}
		for _, tt := range tests {
			err := CheckAccess(tt.from, tt.to)
			if tt.want && err != nil {
				t.Errorf("%s: unexpected error %v", tt.name, err)
			}
			if !tt.want {
				if err == nil {
					t.Errorf("%s: access allowed, want ErrIllegalAssignment", tt.name)
				} else if !errors.Is(err, ErrIllegalAssignment) {
					t.Errorf("%s: err = %v, want ErrIllegalAssignment", tt.name, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccessToInactiveScopedFails(t *testing.T) {
	m := NewModel(Config{})
	a := m.NewLTScoped("a", 64)
	if err := CheckAccess(m.Heap(), a); !errors.Is(err, ErrIllegalAssignment) {
		t.Errorf("access to inactive scope err = %v, want ErrIllegalAssignment", err)
	}
}

func TestAccessErrorMessage(t *testing.T) {
	e := &AccessError{From: "immortal", To: "scope1"}
	if e.Error() == "" {
		t.Error("empty error message")
	}
	if !errors.Is(e, ErrIllegalAssignment) {
		t.Error("AccessError must unwrap to ErrIllegalAssignment")
	}
}

func TestCheckStore(t *testing.T) {
	m := NewModel(Config{})
	ctx := m.NewNoHeapContext()
	a := m.NewLTScoped("a", 64)

	err := ctx.Enter(a, func(c *Context) error {
		scopedRef, err := c.Alloc(8)
		if err != nil {
			return err
		}
		immortalRef, err := c.AllocIn(m.Immortal(), 8)
		if err != nil {
			return err
		}
		// An object in the scope may hold the immortal ref...
		if err := CheckStore(a, immortalRef); err != nil {
			t.Errorf("scoped holder, immortal ref: %v", err)
		}
		// ...but immortal may not hold the scoped ref.
		if err := CheckStore(m.Immortal(), scopedRef); !errors.Is(err, ErrIllegalAssignment) {
			t.Errorf("immortal holder, scoped ref err = %v, want ErrIllegalAssignment", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := CheckStore(m.Heap(), Ref{}); !errors.Is(err, ErrStale) {
		t.Errorf("zero ref store err = %v, want ErrStale", err)
	}
}

func TestDeepDescendantMayReferenceAncestor(t *testing.T) {
	m := NewModel(Config{})
	ctx := m.NewNoHeapContext()
	l1 := m.NewLTScoped("l1", 64)
	l2 := m.NewLTScoped("l2", 64)
	l3 := m.NewLTScoped("l3", 64)

	err := ctx.Enter(l1, func(c1 *Context) error {
		return c1.Enter(l2, func(c2 *Context) error {
			return c2.Enter(l3, func(*Context) error {
				if err := CheckAccess(l3, l1); err != nil {
					t.Errorf("grandchild->grandparent: %v", err)
				}
				if err := CheckAccess(l1, l3); err == nil {
					t.Error("grandparent->grandchild allowed, want error")
				}
				return nil
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRefAccessors(t *testing.T) {
	m := NewModel(Config{})
	ctx := m.NewNoHeapContext()
	ref, err := ctx.Alloc(5)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Area() != m.Immortal() {
		t.Error("ref area != immortal")
	}
	if !ref.Valid() {
		t.Error("immortal ref must stay valid")
	}
	var zero Ref
	if zero.Valid() {
		t.Error("zero ref reports valid")
	}
	if _, err := zero.Bytes(); !errors.Is(err, ErrStale) {
		t.Errorf("zero ref Bytes err = %v, want ErrStale", err)
	}
	if zero.Area() != nil {
		t.Error("zero ref area != nil")
	}
}
