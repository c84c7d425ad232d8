// Package memory simulates the RTSJ memory model that Compadres is built on.
//
// The Real-Time Specification for Java defines three region kinds — heap,
// immortal, and scoped — with strict rules about which references may be
// stored where, a single-parent rule for nested scopes, and reclamation of a
// scoped region once the last thread leaves it. Go has a garbage collector
// and no region memory, so this package reproduces the *semantics* of those
// regions at runtime:
//
//   - Area models a memory region. Immortal and scoped areas carry a fixed
//     byte budget; allocations fail with ErrOutOfMemory past it, exactly
//     like an RTSJ region. Neither commits its budget up front: the immortal
//     area commits each allocation as it is made, and a scoped area's arena
//     grows by doubling segments as carves need them, so each costs what it
//     holds. Reuse of a scoped area zeroes what was carved, mirroring
//     LTScopedMemory's linear-time cost.
//   - Context models a (real-time) thread's scope stack. Entering an area
//     pushes it; the single-parent rule is enforced on entry; the area is
//     reclaimed when the last entrant leaves and no wedge pins it. A thread
//     whose caller keeps a pinned chain pinned stands in it without
//     entering as a holder (EnterBelow).
//   - CheckAccess implements the RTSJ assignment rules (Table 1 of the
//     Compadres paper): anything may reference heap or immortal, while a
//     scoped area may be referenced only from itself or a descendant.
//   - ScopePool models the Compadres optimisation of pre-creating scoped
//     regions in immortal memory and reusing them across component
//     instantiations.
//   - Wedge models the wedge-thread pattern: it pins a scope open without a
//     real thread parked inside it.
//
// All types are safe for concurrent use unless noted otherwise; a Context is
// owned by a single goroutine, like the thread whose scope stack it models.
package memory
