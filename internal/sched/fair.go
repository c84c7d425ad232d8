package sched

import "math/bits"

// MaxTenantClasses is the number of tenant fairness lanes a FairQueue
// maintains inside each priority band. Class 0 is conventionally the
// unclassified default; an admission controller deals the remaining lanes
// to explicit tenants.
const MaxTenantClasses = 8

// fairEntry is one queued handle with its EDF key. deadline 0 means "no
// deadline" and sorts after every real deadline; ties break FIFO by seq.
type fairEntry struct {
	handle   uint32
	deadline int64
	seq      uint64
}

// entryLess is the EDF ordering inside a class: earliest deadline first
// (about-to-miss work runs ahead of relaxed work), no-deadline last, FIFO
// within a deadline.
func entryLess(a, b fairEntry) bool {
	ad, bd := a.deadline, b.deadline
	if ad == 0 {
		ad = 1<<63 - 1
	}
	if bd == 0 {
		bd = 1<<63 - 1
	}
	if ad != bd {
		return ad < bd
	}
	return a.seq < b.seq
}

// fairBand is one priority level's queue: an EDF min-heap per tenant class
// plus deficit-round-robin state arbitrating between the classes. occ leads,
// so class-0-only traffic stays within the band's first cache line.
type fairBand struct {
	occ     uint32 // bitmask of non-empty classes
	cursor  int
	classes [MaxTenantClasses][]fairEntry
	deficit [MaxTenantClasses]int32
}

// FairQueue is a two-level real-time queue: strict priority across the 31
// RTSJ bands (identical to the Pool's pending queue), and within a band,
// deficit-weighted round robin across up to MaxTenantClasses tenant classes
// with earliest-deadline-first ordering inside each class. It is the buffer
// discipline of every In port: a flooding tenant can fill its own lane but
// cannot starve a same-priority neighbour, and within any lane the message
// closest to its deadline runs first. Traffic pushed at class 0 with no
// deadline — what an un-keyed port pushes — is served strict priority, then
// FIFO.
//
// The queue stores opaque uint32 handles supplied by the caller (slab
// indices, typically), so it imposes no boxing and its steady state
// allocates nothing: a band's ~300 B fairBand is allocated once, the first
// time that priority level is used, and its class heaps grow to the
// caller's depth and stay. It is not safe for concurrent use; callers hold
// their own lock (InPort already serialises its buffer).
type FairQueue struct {
	mask    uint32 // bit i set = band i non-empty
	size    int
	seq     uint64
	weights [MaxTenantClasses]int32
	bands   [numPriorities]*fairBand
}

// NewFairQueue builds a queue with the given per-class DRR weights (pops
// granted per round while contested). Missing or non-positive entries
// default to 1; nil weights mean equal sharing.
func NewFairQueue(weights []int32) *FairQueue {
	q := &FairQueue{}
	for i := range q.weights {
		q.weights[i] = 1
		if i < len(weights) && weights[i] > 0 {
			q.weights[i] = weights[i]
		}
	}
	return q
}

// Len returns the number of queued handles.
func (q *FairQueue) Len() int { return q.size }

// Push enqueues a handle at the given priority, tenant class, and deadline
// (a telemetry timestamp; 0 = none). Classes at or past MaxTenantClasses
// fold into the last lane.
func (q *FairQueue) Push(handle uint32, class uint8, prio Priority, deadline int64) {
	if class >= MaxTenantClasses {
		class = MaxTenantClasses - 1
	}
	bi := int(prio.Clamp() - MinPriority)
	b := q.bands[bi]
	if b == nil {
		b = &fairBand{}
		q.bands[bi] = b
	}
	q.seq++
	h := &b.classes[class]
	*h = append(*h, fairEntry{handle: handle, deadline: deadline, seq: q.seq})
	if deadline != 0 { // a deadline-less newcomer already sorts last
		entrySiftUp(*h, len(*h)-1)
	}
	b.occ |= 1 << class
	q.mask |= 1 << uint(bi)
	q.size++
}

// Pop dequeues the next handle: highest non-empty band; within it, the DRR
// winner's earliest-deadline entry. DRR only arbitrates a contested band:
// while a single class is occupied it pops straight from that class and the
// deficits stay as they are.
func (q *FairQueue) Pop() (uint32, bool) {
	if q.mask == 0 {
		return 0, false
	}
	bi := bits.Len32(q.mask) - 1
	b := q.bands[bi]
	var handle uint32
	if b.occ&(b.occ-1) == 0 {
		c := bits.TrailingZeros32(b.occ)
		handle = entryPop(&b.classes[c])
		if len(b.classes[c]) == 0 {
			b.occ = 0
		}
	} else {
		handle = b.popDRR(&q.weights)
	}
	if b.occ == 0 {
		q.mask &^= 1 << uint(bi)
	}
	q.size--
	return handle, true
}

// popDRR runs the deficit round robin over the band's occupied classes.
// Each pop costs one unit of the winning class's deficit; when no occupied
// class has deficit left, every occupied class refills to its weight and
// the round restarts. Called on a non-empty band.
func (b *fairBand) popDRR(weights *[MaxTenantClasses]int32) uint32 {
	for {
		for i := 0; i < MaxTenantClasses; i++ {
			c := (b.cursor + i) % MaxTenantClasses
			if b.occ&(1<<c) == 0 || b.deficit[c] <= 0 {
				continue
			}
			b.cursor = c
			handle := entryPop(&b.classes[c])
			b.deficit[c]--
			if len(b.classes[c]) == 0 {
				b.occ &^= 1 << c
				b.deficit[c] = 0 // an emptied class forfeits its round
			}
			if b.deficit[c] <= 0 {
				b.cursor = (c + 1) % MaxTenantClasses
			}
			return handle
		}
		for c := 0; c < MaxTenantClasses; c++ {
			if b.occ&(1<<c) != 0 {
				b.deficit[c] = weights[c]
			}
		}
	}
}

// Remove deletes a specific handle wherever it is queued, reporting whether
// it was found. O(n); retraction is a cold path.
func (q *FairQueue) Remove(handle uint32) bool {
	for bi := range q.bands {
		if q.mask&(1<<uint(bi)) == 0 {
			continue
		}
		for c := 0; c < MaxTenantClasses; c++ {
			for i, e := range q.bands[bi].classes[c] {
				if e.handle == handle {
					q.removeAt(bi, c, i)
					return true
				}
			}
		}
	}
	return false
}

// removeAt deletes heap position i of class c in band bi, restoring heap
// order and the occupancy masks.
func (q *FairQueue) removeAt(bi, c, i int) {
	b := q.bands[bi]
	h := &b.classes[c]
	last := len(*h) - 1
	(*h)[i] = (*h)[last]
	*h = (*h)[:last]
	if i < last {
		entrySiftDown(*h, i)
		entrySiftUp(*h, i)
	}
	if len(*h) == 0 {
		b.occ &^= 1 << c
		b.deficit[c] = 0
		if b.occ == 0 {
			q.mask &^= 1 << uint(bi)
		}
	}
	q.size--
}

// entryPop removes the heap's first entry and returns its handle — the
// handle alone: loading the whole entry right behind the narrower stores of
// the Push that wrote it stalls on store forwarding.
func entryPop(h *[]fairEntry) uint32 {
	s := *h
	handle, last := s[0].handle, len(s)-1
	*h = s[:last]
	if last > 0 {
		s[0] = s[last]
		entrySiftDown(s[:last], 0)
	}
	return handle
}

func entrySiftUp(h []fairEntry, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func entrySiftDown(h []fairEntry, i int) {
	n := len(h)
	for {
		best := i
		if l := 2*i + 1; l < n && entryLess(h[l], h[best]) {
			best = l
		}
		if r := 2*i + 2; r < n && entryLess(h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
