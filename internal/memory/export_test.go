package memory

// Accessors the tests of this package read; no program needs them.

// Heap returns the model's garbage-collected heap area.
func (m *Model) Heap() *Area { return m.heap }

// Capacity returns the area's byte budget; zero means unbounded (heap).
func (a *Area) Capacity() int64 { return a.capacity }

// Used returns the bytes currently allocated in the area.
func (a *Area) Used() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// Free returns the bytes still available in the area.
func (a *Area) Free() int64 { return a.capacity - a.Used() }

// Active reports whether the area may be allocated from: a scoped area
// while at least one entrant or wedge holds it open, any other always.
func (a *Area) Active() bool { return a.kind != KindScoped || a.holders() > 0 }

// Generation returns the area's reuse generation.
func (a *Area) Generation() uint64 { return a.genNow() }
