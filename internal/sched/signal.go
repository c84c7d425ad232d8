package sched

import (
	"sync/atomic"
	"time"
)

// Signal is a wake-on-transition event, ready as a zero value: a goroutine
// Waits for a predicate over state other goroutines change, and whoever
// changes that state calls Notify afterwards. Nothing polls. A waiter arms a
// channel before it re-checks its predicate and Notify closes the armed
// channel after the change, so one of the two always sees the other and no
// wakeup is lost — provided the predicate reads the state through atomics or
// under the lock its changer holds. The channel is made only when somebody
// has to park, so a Notify nobody waits for is one atomic load.
type Signal struct{ ch atomic.Pointer[chan struct{}] }

// newTimer is swapped by the test that checks Wait stops its timers.
var newTimer = time.NewTimer

// Notify wakes every goroutine parked in Wait.
func (s *Signal) Notify() {
	if s.ch.Load() != nil {
		s.wake()
	}
}

// wake stays out of line so that Notify inlines into the release paths.
//
//go:noinline
func (s *Signal) wake() {
	if ch := s.ch.Swap(nil); ch != nil {
		close(*ch)
	}
}

// Wait blocks until cond reports true or the deadline passes (the zero time:
// never) and reports whether cond held. A timer is armed only when the wait
// has a deadline and has to park, and is stopped on the way out.
func (s *Signal) Wait(cond func() bool, deadline time.Time) bool {
	var expired <-chan time.Time
	for !cond() {
		ch := s.ch.Load()
		if ch == nil {
			fresh := make(chan struct{})
			if !s.ch.CompareAndSwap(nil, &fresh) {
				continue
			}
			ch = &fresh
		}
		if cond() { // armed: a change from here on closes ch
			return true
		}
		if expired == nil && !deadline.IsZero() {
			t := newTimer(time.Until(deadline))
			defer t.Stop()
			expired = t.C
		}
		select {
		case <-*ch:
		case <-expired:
			return cond()
		}
	}
	return true
}
