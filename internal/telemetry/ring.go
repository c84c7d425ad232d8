package telemetry

import "sync/atomic"

// EventKind classifies a flight-recorder event.
type EventKind uint8

// Flight-recorder event kinds.
const (
	// EvNone marks an empty slot.
	EvNone EventKind = iota
	// EvSend is a port send (arg = priority).
	EvSend
	// EvDispatch is a port dispatch (arg = priority).
	EvDispatch
	// EvSpanStart opens a span (arg = request id or similar correlator).
	EvSpanStart
	// EvSpanEnd closes a span (arg = duration in nanoseconds).
	EvSpanEnd
	// EvNetSend is a wire write (arg = frame bytes).
	EvNetSend
	// EvNetRecv is a wire read (arg = frame bytes).
	EvNetRecv
	// EvFault is an error on a cold path (see Registry.RecordFault).
	EvFault
	// EvPoolGrow is a resource pool growing past its initial capacity
	// (arg = new size).
	EvPoolGrow
	// EvState is a resilience state machine transition — circuit breaker
	// open/half-open/close, connection supervisor reconnect (arg = new
	// state code, subsystem-defined).
	EvState
	// EvDeadlineShed is a request dropped unrun because its queueing
	// deadline had already passed (arg = lateness in nanoseconds).
	EvDeadlineShed
	// EvSwap is a live component swap: the blueprint was replaced, the old
	// instance drained, and the route-cache generation flipped
	// (arg = reconfiguration pause in nanoseconds).
	EvSwap
	// EvRewire is a live destination-list replacement on an Out port
	// (arg = the new destination count).
	EvRewire
	// EvDrain is an assembly drain reaching quiescence
	// (arg = drain duration in nanoseconds).
	EvDrain
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case EvNone:
		return "none"
	case EvSend:
		return "send"
	case EvDispatch:
		return "dispatch"
	case EvSpanStart:
		return "span_start"
	case EvSpanEnd:
		return "span_end"
	case EvNetSend:
		return "net_send"
	case EvNetRecv:
		return "net_recv"
	case EvFault:
		return "fault"
	case EvPoolGrow:
		return "pool_grow"
	case EvState:
		return "state"
	case EvDeadlineShed:
		return "deadline_shed"
	case EvSwap:
		return "swap"
	case EvRewire:
		return "rewire"
	case EvDrain:
		return "drain"
	default:
		return "unknown"
	}
}

// Event is one decoded flight-recorder entry.
type Event struct {
	// Seq is the global event sequence number (1-based, monotonic).
	Seq uint64 `json:"seq"`
	// When is the telemetry timestamp (ns since process start).
	When int64 `json:"when_ns"`
	// Kind classifies the event.
	Kind EventKind `json:"-"`
	// KindName is Kind rendered for JSON consumers.
	KindName string `json:"kind"`
	// Label names the port/pool/subsystem that recorded the event.
	Label string `json:"label,omitempty"`
	// Trace and Span correlate the event with a distributed trace.
	Trace uint64 `json:"trace,omitempty"`
	Span  uint64 `json:"span,omitempty"`
	// Arg is kind-specific (priority, lateness, byte count, …).
	Arg uint64 `json:"arg,omitempty"`
}

// ringSlot is one fixed slot. Every field is atomic, so concurrent Record
// and Snapshot are race-free; the seq field doubles as the publication
// marker (0 while a writer is mid-update, ticket value once published).
// A reader accepts a slot only if seq is non-zero and unchanged across the
// field reads.
type ringSlot struct {
	seq   atomic.Uint64
	when  atomic.Int64
	kl    atomic.Uint64 // kind<<32 | label id
	trace atomic.Uint64
	span  atomic.Uint64
	arg   atomic.Uint64
}

// Ring is the fixed-size lock-free flight recorder. Writers claim a ticket
// with one atomic add and publish into their slot with atomic stores —
// no locks, no allocation, wait-free. The ring keeps the most recent
// capacity events; Snapshot (cold path) decodes them oldest-first.
type Ring struct {
	mask  uint64
	pos   atomic.Uint64 // tickets issued; next event gets pos+1
	slots []ringSlot
}

// NewRing returns a ring with the given capacity rounded up to a power of
// two (minimum 16).
func NewRing(capacity int) *Ring {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), slots: make([]ringSlot, n)}
}

// Len returns the number of events recorded so far (not clamped to the ring size).
func (r *Ring) Len() uint64 { return r.pos.Load() }

// Record appends one event, overwriting the oldest when the ring is full.
func (r *Ring) Record(kind EventKind, label LabelID, trace, span, arg uint64) {
	t := r.pos.Add(1)
	s := &r.slots[(t-1)&r.mask]
	s.seq.Store(0) // invalidate for readers while fields are in flux
	s.when.Store(Now())
	s.kl.Store(uint64(kind)<<32 | uint64(label))
	s.trace.Store(trace)
	s.span.Store(span)
	s.arg.Store(arg)
	s.seq.Store(t)
}

// Snapshot decodes the ring's current contents, oldest event first. Slots
// caught mid-write are skipped rather than reported torn. Cold path: the
// returned slice is freshly allocated.
func (r *Ring) Snapshot() []Event {
	n := uint64(len(r.slots))
	end := r.pos.Load()
	start := uint64(1)
	if end > n {
		start = end - n + 1
	}
	out := make([]Event, 0, end-start+1)
	for t := start; t <= end; t++ {
		s := &r.slots[(t-1)&r.mask]
		seq1 := s.seq.Load()
		if seq1 == 0 {
			continue
		}
		ev := Event{
			Seq:   seq1,
			When:  s.when.Load(),
			Trace: s.trace.Load(),
			Span:  s.span.Load(),
			Arg:   s.arg.Load(),
		}
		kl := s.kl.Load()
		if s.seq.Load() != seq1 {
			continue // overwritten while reading
		}
		ev.Kind = EventKind(kl >> 32)
		ev.KindName = ev.Kind.String()
		ev.Label = LabelID(kl & 0xFFFFFFFF).Name()
		out = append(out, ev)
	}
	return out
}

// TraceEvents returns the ring events belonging to the given trace id,
// oldest first.
func (r *Ring) TraceEvents(trace uint64) []Event {
	all := r.Snapshot()
	out := all[:0]
	for _, ev := range all {
		if ev.Trace == trace {
			out = append(out, ev)
		}
	}
	return out
}
