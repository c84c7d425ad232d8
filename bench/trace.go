package main

import (
	"math"

	"repro/internal/telemetry"
)

// opSpan is the stamps of one traced operation, in ns since epoch; 0 means
// not stamped. start and end are the caller's; a, b, c belong to the code
// the benchmark supplies to the program: servant entry and exit on the ORB
// workloads, the P2, P4 and P6 handler entries on pingpong_sync.
type opSpan struct {
	start, a, b, c, end int64
	ref                 uint32 // 1+index of this slot, what the payload carries
}

// ringSlots is how many spans a traced repetition keeps per caller.
const ringSlots = 1 << 13

// tracer holds the traced repetition's spans in memory, one ring per caller
// plus one for the RTZen leg. Slots are pre-allocated; nothing is written
// out until the repetition ends. Every traced operation is stamped, so each
// pays the tracing cost, but only every step-th is kept: the rest share a
// scratch slot per ring. The kept spans then spread over the whole window
// instead of covering its last few milliseconds.
type tracer struct {
	slots   []opSpan // rings × (ringSlots kept + 1 scratch)
	next    []int    // per ring: next kept slot
	step    []int    // per ring: keep one operation in step
	pending []int    // per ring: operations until the next kept one
}

func newTracer(rings int) *tracer {
	t := &tracer{
		slots: make([]opSpan, rings*(ringSlots+1)),
		next:  make([]int, rings), step: make([]int, rings), pending: make([]int, rings),
	}
	for i := range t.slots {
		t.slots[i].ref = uint32(i + 1)
	}
	for r := range t.step {
		t.step[r] = 1
	}
	return t
}

// setStep spreads ring's kept slots over the expected number of traced
// operations.
func (t *tracer) setStep(ring int, expected float64) {
	t.step[ring] = max(1, int(math.Ceil(expected/ringSlots)))
}

// take returns the slot for ring's next traced operation, cleared: a kept
// slot every step-th call, the ring's scratch slot otherwise.
func (t *tracer) take(ring int) *opSpan {
	base := ring * (ringSlots + 1)
	sp := &t.slots[base+ringSlots] // scratch
	if t.pending[ring] == 0 {
		t.pending[ring] = t.step[ring]
		sp = &t.slots[base+t.next[ring]]
		t.next[ring] = (t.next[ring] + 1) % ringSlots
	}
	t.pending[ring]--
	*sp = opSpan{ref: sp.ref}
	return sp
}

// ref is what tag writes into the payload for sp (0 for an unsampled op).
func (t *tracer) ref(sp *opSpan) uint32 {
	if sp == nil {
		return 0
	}
	return sp.ref
}

// slot resolves a payload reference; nil for 0 or anything out of range.
func (t *tracer) slot(ref uint32) *opSpan {
	if ref == 0 || int(ref) > len(t.slots) {
		return nil
	}
	return &t.slots[ref-1]
}

// medianOf returns the median of f over the complete spans of the rings
// [from, to), or NaN when there is none. f returns false to skip a span.
func (t *tracer) medianOf(from, to int, f func(*opSpan) (int64, bool)) float64 {
	var v []float64
	for ring := from; ring < to; ring++ {
		base := ring * (ringSlots + 1)
		for i := base; i < base+ringSlots; i++ { // kept slots only
			sp := &t.slots[i]
			if sp.start == 0 || sp.end == 0 {
				continue
			}
			if d, ok := f(sp); ok {
				v = append(v, float64(d))
			}
		}
	}
	return float64(summarize(v).P50)
}

// layerMetrics turns the traced repetition's spans and counter deltas into
// per-layer metrics. d and base are the main and RTZen legs' deltas, ops the
// completed main-leg operations, sends the port hops made in the window.
func (r *rep) layerMetrics(d, base counts, ops, sends int64) map[string]float64 {
	m := map[string]float64{}
	n := len(r.callers)
	servant := func(sp *opSpan) bool { return sp.a != 0 && sp.b != 0 }
	if r.w.name == "pingpong_sync" {
		hops := func(sp *opSpan) bool { return sp.a != 0 && sp.b != 0 && sp.c != 0 }
		m["core.hop_p1p2_ns"] = r.tr.medianOf(0, n, func(sp *opSpan) (int64, bool) { return sp.a - sp.start, hops(sp) })
		m["core.hop_p3p4_ns"] = r.tr.medianOf(0, n, func(sp *opSpan) (int64, bool) { return sp.b - sp.a, hops(sp) })
		m["core.hop_p5p6_ns"] = r.tr.medianOf(0, n, func(sp *opSpan) (int64, bool) { return sp.c - sp.b, hops(sp) })
		m["core.return_ns"] = r.tr.medianOf(0, n, func(sp *opSpan) (int64, bool) { return sp.end - sp.c, hops(sp) })
	} else {
		m["orb.request_path_us"] = r.tr.medianOf(0, n, func(sp *opSpan) (int64, bool) { return sp.a - sp.start, servant(sp) }) / 1e3
		m["orb.servant_us"] = r.tr.medianOf(0, n, func(sp *opSpan) (int64, bool) { return sp.b - sp.a, servant(sp) }) / 1e3
		m["orb.reply_path_us"] = r.tr.medianOf(0, n, func(sp *opSpan) (int64, bool) { return sp.end - sp.b, servant(sp) }) / 1e3
	}
	m["rtzen.request_path_us"] = r.tr.medianOf(n, n+1, func(sp *opSpan) (int64, bool) { return sp.a - sp.start, servant(sp) }) / 1e3
	m["rtzen.servant_us"] = r.tr.medianOf(n, n+1, func(sp *opSpan) (int64, bool) { return sp.b - sp.a, servant(sp) }) / 1e3
	m["rtzen.reply_path_us"] = r.tr.medianOf(n, n+1, func(sp *opSpan) (int64, bool) { return sp.end - sp.b, servant(sp) }) / 1e3

	per := func(x int64) float64 { return float64(x) / float64(ops) }
	m["rtzen.scope_enters_per_op"] = ratio(base.scopeEnters, r.base.completed.Load(), 0)
	m["core.port_sends_per_op"] = per(sends)
	m["memory.scope_enters_per_op"] = per(d.scopeEnters)
	m["giop.frames_per_op"] = per(d.frames.Acquired)
	m["giop.frame_recycle_ratio"] = ratio(d.frames.Recycled, d.frames.Acquired, 1)
	m["giop.frame_detaches_per_op"] = per(d.frames.Detached)
	m["giop.payload_copies_per_op"] = per(d.payloadCopies)
	m["orb.mux_reorder_per_op"] = per(d.muxReorder)
	m["orb.mux_stale_drops"] = float64(d.muxStale)
	m["orb.collocated_path_share"] = per(d.collocated)
	m["telemetry.events_per_op"] = per(d.ringEvents)
	if c := r.in.ctrl; c != nil {
		m["overload.sheds"] = float64(d.sheds)
		m["overload.limit_end"] = float64(c.Limit())
		m["overload.level_end"] = float64(c.Level())
	}

	var created, reused int64
	for _, p := range r.in.pools {
		if p != nil {
			c, u, _ := p.Stats()
			created, reused = created+c, reused+u
		}
	}
	// Lifetime ratio: acquisitions served from the free list over all areas
	// ever handed out (pre-created ones included).
	m["memory.scopepool_reuse_ratio"] = ratio(reused, reused+created, 1)

	// Queue high-water marks and drops, over every port and message pool
	// the process registered (both ORB ends; RTZen has none).
	var queueMax, inflightMax, dropped int64
	for _, g := range telemetry.Default.Snapshot(telemetry.SnapshotOptions{}).Gauges {
		switch g.Name {
		case "port_queue_max":
			queueMax = max(queueMax, g.Value)
		case "msgpool_in_flight_max":
			inflightMax = max(inflightMax, g.Value)
		case "port_dropped":
			dropped += g.Value
		}
	}
	m["core.inport_queue_max"] = float64(queueMax)
	m["core.msgpool_inflight_max"] = float64(inflightMax)
	m["core.inport_dropped"] = float64(dropped)

	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(m, k)
		}
	}
	return m
}

// ratio is a/b, or whenZero when b is 0.
func ratio(a, b int64, whenZero float64) float64 {
	if b == 0 {
		return whenZero
	}
	return float64(a) / float64(b)
}
