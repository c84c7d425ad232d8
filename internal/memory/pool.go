package memory

import (
	"fmt"
	"sync"

	"repro/internal/telemetry"
)

// scopePoolGrows counts pooled areas created beyond the pre-created set.
var scopePoolGrows = telemetry.NewCounter("scope_pool_grow_total")

// ScopePool is a pool of same-sized linear-time scoped areas, pre-created and
// reused across component instantiations. It models the Compadres CCL
// <ScopedPool> attribute: "further optimization of component instantiation
// can be achieved by creating pools of scoped memory areas in immortal
// memory and reusing these areas at runtime." Creating an area commits no
// memory here, so creation is not the cost a pool saves: it bounds how many
// areas exist, and a reused area keeps the segment its arena grew to.
//
// The pool's bookkeeping is charged against immortal memory (a small header
// per pooled area), as in the paper.
type ScopePool struct {
	model *Model
	name  string
	size  int64
	grow  bool

	mu      sync.Mutex
	free    []*Area
	created int64
	reused  int64
	header  Ref // immortal bookkeeping allocation

	label telemetry.LabelID
}

// scopePoolHeaderBytes is the immortal bookkeeping charge per pooled area.
const scopePoolHeaderBytes = 64

// ScopePoolConfig parameterises NewScopePool.
type ScopePoolConfig struct {
	// Name prefixes the pooled areas' names.
	Name string
	// AreaSize is the byte budget of each pooled area.
	AreaSize int64
	// Count is the number of areas pre-created at pool construction.
	Count int
	// Grow permits Acquire to create additional areas when the pool is
	// empty; when false, Acquire fails with ErrPoolExhausted instead.
	Grow bool
}

// NewScopePool pre-creates cfg.Count LT scoped areas of cfg.AreaSize bytes.
// The per-area bookkeeping is allocated from immortal memory and fails with
// ErrOutOfMemory if immortal is exhausted.
func (m *Model) NewScopePool(cfg ScopePoolConfig) (*ScopePool, error) {
	if cfg.AreaSize <= 0 {
		return nil, fmt.Errorf("memory: scope pool %q: non-positive area size %d", cfg.Name, cfg.AreaSize)
	}
	if cfg.Count < 0 {
		return nil, fmt.Errorf("memory: scope pool %q: negative count %d", cfg.Name, cfg.Count)
	}
	header, err := m.immortal.alloc(scopePoolHeaderBytes * (cfg.Count + 1))
	if err != nil {
		return nil, fmt.Errorf("scope pool %q bookkeeping: %w", cfg.Name, err)
	}
	p := &ScopePool{
		model:  m,
		name:   cfg.Name,
		size:   cfg.AreaSize,
		grow:   cfg.Grow,
		header: header,
		label:  telemetry.Label("scopepool." + cfg.Name),
	}
	for i := 0; i < cfg.Count; i++ {
		a := m.NewLTScoped(fmt.Sprintf("%s#%d", cfg.Name, i), cfg.AreaSize)
		a.pool = p
		p.free = append(p.free, a)
		p.created++
	}
	return p, nil
}

// Name returns the pool's name.
func (p *ScopePool) Name() string { return p.name }

// AreaSize returns the byte budget of each pooled area.
func (p *ScopePool) AreaSize() int64 { return p.size }

// Acquire takes a free area from the pool, creating a new one when empty if
// growth is enabled. The returned area is inactive; the caller parents it by
// entering or pinning it, and it returns to the pool automatically when
// reclaimed.
func (p *ScopePool) Acquire() (*Area, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free = p.free[:n-1]
		p.reused++
		p.mu.Unlock()
		return a, nil
	}
	if !p.grow {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrPoolExhausted, p.name)
	}
	id := p.created
	p.created++
	p.mu.Unlock()
	// The pool grew past its pre-created set: worth a flight-recorder entry,
	// since unexpected growth at runtime is exactly what the paper's
	// pre-creation optimisation is meant to avoid.
	scopePoolGrows.Inc()
	telemetry.Record(telemetry.EvPoolGrow, p.label, 0, 0, uint64(id+1))
	a := p.model.NewLTScoped(fmt.Sprintf("%s#%d", p.name, id), p.size)
	a.pool = p
	return a, nil
}

// put returns a reclaimed area to the free list. Called from Area
// reclamation with no area lock held.
func (p *ScopePool) put(a *Area) {
	p.mu.Lock()
	p.free = append(p.free, a)
	p.mu.Unlock()
}

// Stats reports pool usage: total areas created, acquisitions served from
// the free list, and areas currently free.
func (p *ScopePool) Stats() (created, reused int64, free int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created, p.reused, len(p.free)
}
