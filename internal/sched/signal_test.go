package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Lock-step flips between one flipper and 64 waiters over two Signals: every
// waiter waits for each flip and the flipper for every waiter's ack, so one
// lost wakeup on either side stalls the round and trips the deadline.
func TestSignalNoLostWakeup(t *testing.T) {
	const waiters, flips = 64, 10000
	var gen, acks atomic.Int64
	var flipped, acked Signal
	bound := func() time.Time { return time.Now().Add(10 * time.Second) }
	var wg sync.WaitGroup
	var lost atomic.Bool
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= flips; i++ {
				if !flipped.Wait(func() bool { return gen.Load() >= i }, bound()) {
					lost.Store(true)
					return
				}
				acks.Add(1)
				acked.Notify()
			}
		}()
	}
	for i := int64(1); i <= flips && !lost.Load(); i++ {
		gen.Store(i)
		flipped.Notify()
		if !acked.Wait(func() bool { return acks.Load() >= i*waiters }, bound()) {
			t.Fatalf("flip %d: %d of %d acks, a wakeup was lost", i, acks.Load()-(i-1)*waiters, waiters)
		}
	}
	wg.Wait()
	if lost.Load() {
		t.Fatal("a waiter missed a flip")
	}
}

// A deadline is honoured, and the timer armed for it is stopped whichever way
// the wait ends.
func TestSignalDeadline(t *testing.T) {
	armed := make(chan *time.Timer, 1)
	newTimer = func(d time.Duration) *time.Timer {
		tm := time.NewTimer(d)
		armed <- tm
		return tm
	}
	defer func() { newTimer = time.NewTimer }()

	var s Signal
	start := time.Now()
	if s.Wait(func() bool { return false }, start.Add(20*time.Millisecond)) {
		t.Fatal("a false predicate was reported true")
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("returned after %v, before the 20ms deadline", waited)
	}
	<-armed

	var flag atomic.Bool
	done := make(chan bool)
	go func() { done <- s.Wait(flag.Load, time.Now().Add(time.Hour)) }()
	tm := <-armed
	flag.Store(true)
	s.Notify()
	if !<-done {
		t.Fatal("notified wait reported its predicate false")
	}
	if tm.Stop() {
		t.Fatal("the wait returned with its one-hour timer still running")
	}

	// A deadline already past never parks.
	if s.Wait(func() bool { return false }, time.Now().Add(-time.Second)) {
		t.Fatal("a false predicate was reported true")
	}
}

// Notify with nobody waiting, and a Wait whose predicate already holds, cost
// no allocation: the per-message release path calls Notify on every release.
func TestSignalNotifyAllocFree(t *testing.T) {
	var s Signal
	if n := testing.AllocsPerRun(1000, s.Notify); n != 0 {
		t.Errorf("Notify with no waiter: %v allocs, want 0", n)
	}
	ready := func() bool { return true }
	if n := testing.AllocsPerRun(1000, func() { s.Wait(ready, time.Time{}) }); n != 0 {
		t.Errorf("Wait on a true predicate: %v allocs, want 0", n)
	}
}
