package memory

// Ref is a checked handle to bytes allocated in an Area. It is the analogue
// of an object reference under the RTSJ: dereferencing a Ref whose scoped
// area has been reclaimed fails with ErrStale instead of silently reading
// reused memory.
//
// Ref is a small value type; copy it freely. The bytes it exposes alias the
// area's arena, so they become invalid (and Bytes starts failing) once the
// area is reclaimed.
type Ref struct {
	area *Area
	gen  uint64
	data []byte
}

// Valid reports whether the Ref still points into a live generation of its
// area. The zero Ref is invalid. The check is lock-free: the generation is
// read from the area's packed state word.
func (r Ref) Valid() bool {
	return r.area != nil && r.gen == r.area.genNow()
}

// Bytes returns the referenced bytes, or ErrStale if the area has been
// reclaimed since the Ref was created.
func (r Ref) Bytes() ([]byte, error) {
	if r.area == nil || r.gen != r.area.genNow() {
		return nil, ErrStale
	}
	return r.data, nil
}

// Len returns the allocation size in bytes.
func (r Ref) Len() int { return len(r.data) }

// Area returns the area the Ref was allocated in, or nil for the zero Ref.
func (r Ref) Area() *Area { return r.area }

// CheckStore verifies that a reference to ref may legally be stored inside
// an object living in holder, per the RTSJ assignment rules. It is a
// convenience wrapper over CheckAccess.
func CheckStore(holder *Area, ref Ref) error {
	if ref.area == nil {
		return ErrStale
	}
	return CheckAccess(holder, ref.area)
}

// CheckAccess implements the RTSJ assignment rules (Table 1 of the paper):
// code or objects in `from` may hold a reference into `to` only if `to` is
// guaranteed to live at least as long as `from`. Concretely:
//
//   - references to heap and immortal memory are always legal;
//   - references to a scoped area are legal only from that same area or
//     from one of its descendants (an inner, shorter-lived scope may point
//     outward, never the reverse).
func CheckAccess(from, to *Area) error {
	if to.kind != KindScoped {
		return nil
	}
	if to.holders() == 0 {
		return &AccessError{From: from.name, To: to.name}
	}
	for a := from; a != nil; a = a.parent.Load() { // primordial areas have none
		if a == to {
			return nil
		}
	}
	return &AccessError{From: from.name, To: to.name}
}
