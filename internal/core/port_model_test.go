package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sched"
)

// refItem is one delivery queued in the reference buffer.
type refItem struct {
	id    int
	band  sched.Priority // clamped, as the queue files it
	class int
}

// refPort is the oracle the port buffer is replayed against: the order
// written as a scan over the items. items stay in arrival order, so the
// first match is the oldest: FIFO within a lane.
type refPort struct {
	items []refItem
	drr   map[sched.Priority]*refDRR
}

// refDRR is one band's round-robin state.
type refDRR struct {
	deficit [sched.MaxTenantClasses]int32
	cursor  int
}

// next returns the item a pop must hand out: highest band, then the band's
// DRR winner lane, then FIFO.
func (r *refPort) next() refItem {
	top := r.items[0].band
	for _, it := range r.items {
		top = max(top, it.band)
	}
	var lanes [sched.MaxTenantClasses][]refItem
	for _, it := range r.items {
		if it.band == top {
			lanes[it.class] = append(lanes[it.class], it)
		}
	}
	return lanes[r.turn(top, &lanes)][0]
}

// turn picks the class whose turn it is in a band, charging its deficit. A
// single occupied class is no contest and no DRR turn.
func (r *refPort) turn(band sched.Priority, lanes *[sched.MaxTenantClasses][]refItem) int {
	occupied, only := 0, 0
	for c := range lanes {
		if len(lanes[c]) > 0 {
			occupied, only = occupied+1, c
		}
	}
	if occupied == 1 {
		return only
	}
	d := r.drr[band]
	for {
		for i := range lanes {
			c := (d.cursor + i) % len(lanes)
			if len(lanes[c]) == 0 || d.deficit[c] <= 0 {
				continue
			}
			if d.deficit[c]--; d.deficit[c] <= 0 || len(lanes[c]) == 1 {
				d.cursor = (c + 1) % len(lanes)
			} else {
				d.cursor = c
			}
			return c
		}
		for c := range lanes {
			if len(lanes[c]) > 0 {
				d.deficit[c] = 1 // every lane weighs the same
			}
		}
	}
}

// take removes item id. A class emptied by anything but an uncontested pop
// forfeits what is left of its round.
func (r *refPort) take(id int, uncontested bool) {
	i := slices.IndexFunc(r.items, func(it refItem) bool { return it.id == id })
	gone := r.items[i]
	r.items = slices.Delete(r.items, i, i+1)
	same := func(it refItem) bool { return it.band == gone.band && it.class == gone.class }
	if !uncontested && !slices.ContainsFunc(r.items, same) {
		r.drr[gone.band].deficit[gone.class] = 0
	}
}

// uncontested reports whether the top band holds a single class.
func (r *refPort) uncontested(top refItem) bool {
	return !slices.ContainsFunc(r.items, func(it refItem) bool { return it.band == top.band && it.class != top.class })
}

// TestPortBufferModel replays seeded random push/pop/remove histories
// through a real Reject port and the reference, item for item: a port must
// dequeue band ▸ DRR across tenant lanes ▸ FIFO, whatever lanes its messages
// ride, and refuse a push to a full buffer. A failure prints seed and step;
// the same seed replays it.
func TestPortBufferModel(t *testing.T) {
	prios := []sched.Priority{-2, 1, 5, 5, 10, 15, 15, 31, 40}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 2 + rng.Intn(10)
		p := newTestPort(capacity, OverflowReject)
		ref := &refPort{drr: map[sched.Priority]*refDRR{}}
		envs := map[int]*envelope{}
		msgs := map[int]*classedMsg{}
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d (cap %d) step %d: "+format,
				append([]any{seed, capacity, step}, args...)...)
		}
		idOf := func(it bufItem) int { return it.msg.(*classedMsg).v }

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // push
				id := step
				class := rng.Intn(4)
				if rng.Intn(8) == 0 {
					class = 200 // folds into the last lane
				}
				prio := prios[rng.Intn(len(prios))]
				envs[id], msgs[id] = &envelope{}, &classedMsg{testMsg: testMsg{v: id}, class: uint8(class)}
				err := p.push(bufItem{env: envs[id], msg: msgs[id], prio: prio})

				nw := refItem{id: id, band: prio.Clamp(), class: min(class, sched.MaxTenantClasses-1)}
				if ref.drr[nw.band] == nil {
					ref.drr[nw.band] = &refDRR{}
				}
				wantErr := len(ref.items) == capacity
				if wantErr != (err != nil) || (err != nil && !errors.Is(err, ErrBufferFull)) {
					fail(step, "push err = %v, want an error: %v", err, wantErr)
				}
				if !wantErr {
					ref.items = append(ref.items, nw)
				}
			case op < 9: // pop
				it, ok := p.pop()
				if ok != (len(ref.items) > 0) {
					fail(step, "pop ok = %v with %d items in the reference", ok, len(ref.items))
				}
				if ok {
					want := ref.next()
					if idOf(it) != want.id {
						fail(step, "pop = item %d, want %d (%+v)", idOf(it), want.id, want)
					}
					ref.take(want.id, ref.uncontested(want))
				}
			default: // retract a delivery, queued or not
				id := rng.Intn(step + 1)
				if envs[id] == nil {
					continue
				}
				queued := slices.ContainsFunc(ref.items, func(it refItem) bool { return it.id == id })
				it, ok := p.removeItem(envs[id], msgs[id])
				if ok != queued || (ok && idOf(it) != id) {
					fail(step, "removeItem(%d) = (%v, %v), reference has it queued: %v", id, it.msg, ok, queued)
				}
				if queued {
					ref.take(id, false)
				}
			}
			if p.queue.Len() != len(ref.items) || len(p.free)+len(ref.items) != capacity {
				fail(step, "depth %d, %d free slots; reference holds %d", p.queue.Len(), len(p.free), len(ref.items))
			}
		}
	}
}
