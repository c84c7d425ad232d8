package memory

import (
	"errors"
	"fmt"
)

var (
	// ErrOutOfMemory reports that an allocation exceeded an area's byte
	// budget, the analogue of RTSJ's OutOfMemoryError inside a region.
	ErrOutOfMemory = errors.New("memory: area budget exhausted")

	// ErrIllegalAssignment reports a reference store that violates the RTSJ
	// assignment rules (e.g. storing a scoped reference in immortal memory).
	ErrIllegalAssignment = errors.New("memory: illegal assignment")

	// ErrScopedCycle reports an Enter that would violate the single-parent
	// rule, the analogue of RTSJ's ScopedCycleException.
	ErrScopedCycle = errors.New("memory: scoped cycle (single-parent rule)")

	// ErrInactive reports use of a reclaimed or not-yet-entered area where an
	// active one is required.
	ErrInactive = errors.New("memory: area not active")

	// ErrStale reports dereferencing a Ref whose area has been reclaimed
	// since the Ref was created, the analogue of a dangling scoped reference.
	ErrStale = errors.New("memory: stale reference")

	// ErrNotOnStack reports ExecuteInArea on an area that is not on the
	// context's scope stack and is not a primordial (heap/immortal) area.
	ErrNotOnStack = errors.New("memory: area not on scope stack")

	// ErrPoolExhausted reports Acquire on a ScopePool with no free areas and
	// growth disabled.
	ErrPoolExhausted = errors.New("memory: scope pool exhausted")
)

// AccessError decorates ErrIllegalAssignment with the two areas involved so
// callers can report exactly which store was rejected.
type AccessError struct {
	From, To string // area names
}

// Error implements the error interface.
func (e *AccessError) Error() string {
	return fmt.Sprintf("memory: illegal assignment: reference to %q may not be stored in %q", e.To, e.From)
}

// Unwrap reports ErrIllegalAssignment so errors.Is matching works.
func (e *AccessError) Unwrap() error { return ErrIllegalAssignment }
