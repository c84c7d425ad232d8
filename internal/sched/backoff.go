package sched

import (
	"sync/atomic"
	"time"
)

// Backoff produces capped exponential delays with deterministic jitter: the
// n-th Next() returns a duration drawn from [cap/2, cap] where cap doubles
// from Base up to Max ("equal jitter"). The jitter stream is splitmix64
// over the seed, so a retry schedule is reproducible for a given seed —
// the same property the fault package gives chaos scenarios.
//
// A Backoff is owned by one retry loop and is not safe for concurrent use.
type Backoff struct {
	// Base is the first delay ceiling; zero selects 1ms.
	Base time.Duration
	// Max caps the ceiling's exponential growth; zero selects 250ms.
	Max time.Duration
	// Seed drives the jitter; zero produces an unjittered schedule of
	// exact ceilings (useful for tests that assert timing bounds).
	Seed uint64

	attempt int
	draws   uint64
}

// Next returns the delay before the next retry and advances the schedule.
func (b *Backoff) Next() time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = time.Millisecond
	}
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	ceil := base
	for i := 0; i < b.attempt && ceil < max; i++ {
		ceil *= 2
	}
	if ceil > max {
		ceil = max
	}
	b.attempt++
	if b.Seed == 0 {
		return ceil
	}
	half := ceil / 2
	b.draws++
	z := b.Seed + b.draws*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return half + time.Duration(z%uint64(half+1))
}

// Reset restarts the schedule from Base (the jitter stream continues).
func (b *Backoff) Reset() { b.attempt = 0 }

// RetryBudget is a token bucket bounding how many retries a client may
// spend: each retry takes one token, each success earns a fraction back
// (one token per EarnEvery successes), and the bucket is capped, so a hard
// outage cannot turn into an unbounded retry storm — once the budget is
// spent, failures surface immediately until successes refill it.
//
// All methods are safe for concurrent use and allocation-free.
type RetryBudget struct {
	tokens  atomic.Int64
	cap     int64
	earnDiv int64
	earns   atomic.Int64
}

// NewRetryBudget returns a full bucket holding capTokens (minimum 1),
// refilled at one token per earnEvery successes (minimum 1).
func NewRetryBudget(capTokens, earnEvery int) *RetryBudget {
	if capTokens < 1 {
		capTokens = 1
	}
	if earnEvery < 1 {
		earnEvery = 1
	}
	b := &RetryBudget{cap: int64(capTokens), earnDiv: int64(earnEvery)}
	b.tokens.Store(b.cap)
	return b
}

// Take consumes one token, reporting false (and consuming nothing) when the
// budget is exhausted.
func (b *RetryBudget) Take() bool {
	for {
		t := b.tokens.Load()
		if t <= 0 {
			return false
		}
		if b.tokens.CompareAndSwap(t, t-1) {
			return true
		}
	}
}

// Earn credits one success toward the refill rate.
func (b *RetryBudget) Earn() {
	if b.earns.Add(1)%b.earnDiv != 0 {
		return
	}
	for {
		t := b.tokens.Load()
		if t >= b.cap {
			return
		}
		if b.tokens.CompareAndSwap(t, t+1) {
			return
		}
	}
}
