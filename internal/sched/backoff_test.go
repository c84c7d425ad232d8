package sched

import (
	"testing"
	"time"
)

func TestBackoffUnjitteredDoublesAndCaps(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Max: 8 * time.Millisecond}
	want := []time.Duration{1, 2, 4, 8, 8, 8}
	for i, w := range want {
		if got := b.Next(); got != w*time.Millisecond {
			t.Errorf("Next()[%d] = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	b.Reset()
	if got := b.Next(); got != time.Millisecond {
		t.Errorf("after Reset, Next() = %v, want 1ms", got)
	}
}

func TestBackoffJitterBoundedAndDeterministic(t *testing.T) {
	mk := func(seed uint64) []time.Duration {
		b := Backoff{Base: time.Millisecond, Max: 16 * time.Millisecond, Seed: seed}
		out := make([]time.Duration, 10)
		for i := range out {
			out[i] = b.Next()
		}
		return out
	}
	a, c := mk(99), mk(99)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], c[i])
		}
	}
	// Each delay stays in [ceil/2, ceil].
	ceil := time.Millisecond
	for i, d := range a {
		if d < ceil/2 || d > ceil {
			t.Errorf("delay[%d] = %v outside [%v, %v]", i, d, ceil/2, ceil)
		}
		if ceil < 16*time.Millisecond {
			ceil *= 2
		}
	}
}

func TestRetryBudgetExhaustsAndRefills(t *testing.T) {
	b := NewRetryBudget(2, 3)
	if !b.Take() || !b.Take() {
		t.Fatal("fresh budget refused tokens")
	}
	if b.Take() {
		t.Fatal("empty budget granted a token")
	}
	b.Earn()
	b.Earn()
	if b.Take() {
		t.Fatal("budget refilled before earnEvery successes")
	}
	b.Earn() // third success earns one token
	if !b.Take() {
		t.Fatal("budget did not refill after earnEvery successes")
	}
}

func TestRetryBudgetCapped(t *testing.T) {
	b := NewRetryBudget(1, 1)
	for i := 0; i < 10; i++ {
		b.Earn()
	}
	if got := b.tokens.Load(); got != 1 {
		t.Errorf("tokens = %d, want capped at 1", got)
	}
}
