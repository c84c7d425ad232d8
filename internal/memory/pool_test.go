package memory

import (
	"errors"
	"testing"
)

func TestScopePoolAcquireReuse(t *testing.T) {
	m := NewModel(Config{})
	p, err := m.NewScopePool(ScopePoolConfig{Name: "pool", AreaSize: 128, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "pool" || p.AreaSize() != 128 {
		t.Errorf("accessors: %q %d", p.Name(), p.AreaSize())
	}

	ctx := m.NewNoHeapContext()
	a1, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("pool returned the same area twice")
	}
	if _, err := p.Acquire(); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("exhausted acquire err = %v, want ErrPoolExhausted", err)
	}

	// Use a1 and let it reclaim: it must return to the pool.
	if err := ctx.Enter(a1, func(c *Context) error {
		_, err := c.Alloc(64)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	a3, err := p.Acquire()
	if err != nil {
		t.Fatalf("acquire after auto-return: %v", err)
	}
	if a3 != a1 {
		t.Error("pool did not reuse the reclaimed area")
	}
	if a3.Used() != 0 {
		t.Errorf("reused area not reset: used = %d", a3.Used())
	}

	created, reused, free := p.Stats()
	if created != 2 {
		t.Errorf("created = %d, want 2", created)
	}
	if reused != 3 {
		t.Errorf("reused = %d, want 3", reused)
	}
	if free != 0 {
		t.Errorf("free = %d, want 0", free)
	}
	_ = a2
}

func TestScopePoolGrowth(t *testing.T) {
	m := NewModel(Config{})
	p, err := m.NewScopePool(ScopePoolConfig{Name: "g", AreaSize: 64, Count: 0, Grow: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Acquire()
	if err != nil {
		t.Fatalf("growth acquire: %v", err)
	}
	if a.Capacity() != 64 {
		t.Errorf("grown area capacity = %d", a.Capacity())
	}
	created, _, _ := p.Stats()
	if created != 1 {
		t.Errorf("created = %d, want 1", created)
	}
}

func TestScopePoolChargesImmortal(t *testing.T) {
	m := NewModel(Config{ImmortalSize: 2 * scopePoolHeaderBytes})
	// Needs (count+1) headers = 3*64 bytes, budget only has 2*64.
	if _, err := m.NewScopePool(ScopePoolConfig{Name: "p", AreaSize: 32, Count: 2}); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("err = %v, want ErrOutOfMemory", err)
	}
	// A smaller pool fits.
	m2 := NewModel(Config{ImmortalSize: 4 * scopePoolHeaderBytes})
	if _, err := m2.NewScopePool(ScopePoolConfig{Name: "p", AreaSize: 32, Count: 2}); err != nil {
		t.Errorf("fitting pool: %v", err)
	}
}

func TestScopePoolValidation(t *testing.T) {
	m := NewModel(Config{})
	if _, err := m.NewScopePool(ScopePoolConfig{Name: "bad", AreaSize: 0, Count: 1}); err == nil {
		t.Error("zero area size accepted")
	}
	if _, err := m.NewScopePool(ScopePoolConfig{Name: "bad", AreaSize: 10, Count: -1}); err == nil {
		t.Error("negative count accepted")
	}
}

func TestScopePoolReturnViaWedge(t *testing.T) {
	m := NewModel(Config{})
	p, err := m.NewScopePool(ScopePoolConfig{Name: "w", AreaSize: 64, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWedge(a, m.Immortal())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, free := p.Stats(); free != 0 {
		t.Fatal("area in pool while pinned")
	}
	w.Release()
	if _, _, free := p.Stats(); free != 1 {
		t.Error("area not returned to pool after wedge release")
	}
}
