package sched

import (
	"testing"
)

// Strict priority across bands is preserved: the fair queue never lets a
// lower band run while a higher band has work, exactly like the Pool rings.
func TestFairQueueStrictPriority(t *testing.T) {
	q := NewFairQueue(nil)
	q.Push(1, 0, 5, 0)
	q.Push(2, 0, 30, 0)
	q.Push(3, 0, 15, 0)
	q.Push(4, 0, 30, 0)
	want := []uint32{2, 4, 3, 1}
	for i, w := range want {
		h, ok := q.Pop()
		if !ok || h != w {
			t.Fatalf("pop %d = (%d, %v), want %d", i, h, ok, w)
		}
	}
	if _, ok := q.Pop(); ok || q.Len() != 0 {
		t.Error("queue not empty after draining")
	}
}

// Within a band, contested pops divide by DRR weight: class 0 at weight 3
// gets three pops per round to class 1's one.
func TestFairQueueDRRWeights(t *testing.T) {
	q := NewFairQueue([]int32{3, 1})
	// 12 messages each, same band, interleaved arrival.
	for i := uint32(0); i < 12; i++ {
		q.Push(100+i, 0, 10, 0)
		q.Push(200+i, 1, 10, 0)
	}
	// Over the first 8 pops (two full rounds), class 0 should win 6.
	c0 := 0
	for i := 0; i < 8; i++ {
		h, ok := q.Pop()
		if !ok {
			t.Fatal("pop failed")
		}
		if h < 200 {
			c0++
		}
	}
	if c0 != 6 {
		t.Errorf("class 0 won %d of 8 contested pops, want 6 (weight 3:1)", c0)
	}
	// Once class 0 drains, class 1 gets every pop regardless of weight.
	for q.Len() > 0 {
		q.Pop()
	}
}

// A flooding class cannot starve a same-band neighbour: the neighbour's
// lone message pops within one DRR round of its arrival.
func TestFairQueueNoStarvation(t *testing.T) {
	q := NewFairQueue([]int32{1, 1})
	for i := uint32(0); i < 64; i++ {
		q.Push(i, 0, 10, 0)
	}
	q.Push(999, 1, 10, 0)
	for i := 0; i < 3; i++ { // weight 1 each: the victim pops by turn 2
		if h, _ := q.Pop(); h == 999 {
			return
		}
	}
	t.Error("flooded class starved the neighbour past a full DRR round")
}

// Within a class, EDF: the message nearest its deadline pops first,
// no-deadline messages pop last, FIFO among equals.
func TestFairQueueEDFWithinClass(t *testing.T) {
	q := NewFairQueue(nil)
	q.Push(1, 0, 10, 0)    // no deadline
	q.Push(2, 0, 10, 5000) // latest real deadline
	q.Push(3, 0, 10, 1000) // most urgent
	q.Push(4, 0, 10, 0)    // no deadline, after 1
	want := []uint32{3, 2, 1, 4}
	for i, w := range want {
		if h, _ := q.Pop(); h != w {
			t.Fatalf("pop %d = %d, want %d (EDF then FIFO)", i, h, w)
		}
	}
}

// Remove deletes an exact handle wherever it is queued, whatever its band,
// class or deadline, and leaves the rest in pop order.
func TestFairQueueRemove(t *testing.T) {
	q := NewFairQueue(nil)
	q.Push(1, 0, 20, 0)
	q.Push(3, 1, 5, 0)
	q.Push(2, 0, 5, 9)
	q.Push(4, 0, 20, 0)

	for _, h := range []uint32{3, 4} {
		if !q.Remove(h) {
			t.Fatalf("Remove(%d) did not find the handle", h)
		}
		if q.Remove(h) {
			t.Fatalf("Remove(%d) found an already-removed handle", h)
		}
	}
	for _, want := range []uint32{1, 2} {
		if h, ok := q.Pop(); !ok || h != want {
			t.Fatalf("pop = (%d, %v), want %d", h, ok, want)
		}
	}
	if q.Len() != 0 {
		t.Errorf("len = %d after draining, want 0", q.Len())
	}
}

// Out-of-range classes fold into the last lane and out-of-range priorities
// clamp into the band, rather than corrupting the masks.
func TestFairQueueClamping(t *testing.T) {
	q := NewFairQueue(nil)
	q.Push(1, 200, 10, 0)            // class clamps to MaxTenantClasses-1
	q.Push(2, 0, MaxPriority+9, 0)   // prio clamps to MaxPriority
	q.Push(3, 0, MinPriority-100, 0) // prio clamps to MinPriority
	if h, _ := q.Pop(); h != 2 {
		t.Errorf("first pop = %d, want the clamped-high 2", h)
	}
	if h, _ := q.Pop(); h != 1 {
		t.Errorf("second pop = %d, want 1", h)
	}
	if h, _ := q.Pop(); h != 3 {
		t.Errorf("third pop = %d, want the clamped-low 3", h)
	}
}

// Steady-state push/pop must not allocate: the queue sits on the dispatch
// path of every In port. A band is allocated the first time its priority is
// used, so each round warms up at the priority it measures.
func TestFairQueueAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		classes uint32 // 1 = the uncontested straight-from-the-class pop
	}{{"one class", 1}, {"contested", 2}} {
		q := NewFairQueue(nil)
		round := func() {
			for i := uint32(0); i < 8; i++ {
				q.Push(i, uint8(i%tc.classes), 10, int64(i))
			}
			for q.Len() > 0 {
				q.Pop()
			}
		}
		round() // warm band 10 and its class heaps
		if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
			t.Errorf("%s: steady-state push/pop allocates %.1f objects/op, want 0", tc.name, allocs)
		}
	}
}

// An uncontested band pops straight from its one class: FIFO, and no DRR
// turn is spent, so the contest that follows starts from a full round.
func TestFairQueueUncontestedPopSpendsNoDeficit(t *testing.T) {
	q := NewFairQueue([]int32{2, 1})
	for i := uint32(0); i < 5; i++ {
		q.Push(i, 0, 10, 0)
	}
	for want := uint32(0); want < 3; want++ {
		if h, _ := q.Pop(); h != want {
			t.Fatalf("uncontested pop = %d, want %d (FIFO)", h, want)
		}
	}
	q.Push(100, 1, 10, 0)
	q.Push(101, 1, 10, 0)
	want := []uint32{3, 4, 100, 101} // class 0's whole weight-2 round, then class 1
	for i, w := range want {
		if h, _ := q.Pop(); h != w {
			t.Fatalf("contested pop %d = %d, want %d", i, h, w)
		}
	}
}
