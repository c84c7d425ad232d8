package sched

import (
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// collectMisses installs a miss handler appending into a shared slice and
// returns the accessor plus a cleanup.
func collectMisses(t *testing.T) func() []telemetry.Miss {
	t.Helper()
	var mu sync.Mutex
	var got []telemetry.Miss
	telemetry.SetDeadlineMissHandler(func(m telemetry.Miss) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	t.Cleanup(func() { telemetry.SetDeadlineMissHandler(nil) })
	return func() []telemetry.Miss {
		mu.Lock()
		defer mu.Unlock()
		out := make([]telemetry.Miss, len(got))
		copy(out, got)
		return out
	}
}

func TestSubmitUntilMissAlreadyLate(t *testing.T) {
	misses := collectMisses(t)
	p := NewPool(PoolConfig{Name: "late-dl"})
	defer p.Shutdown()

	before := telemetry.DeadlineMisses()
	ran := make(chan struct{}, 2)
	// Deadline 1 (1ns after process start) is positive yet always in the
	// past, so the miss must be detected before fn runs; the late task still
	// executes.
	if err := p.SubmitUntil(NormPriority, 1, func(Priority) { ran <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	<-ran
	if got := p.Stats().DeadlineMisses; got != 1 {
		t.Errorf("pool misses = %d, want 1", got)
	}
	if telemetry.DeadlineMisses() != before+1 {
		t.Errorf("global miss counter did not advance")
	}
	ms := misses()
	if len(ms) != 1 || ms[0].Label != "pool.late-dl" || ms[0].Priority != int(NormPriority) {
		t.Errorf("misses = %+v", ms)
	}

	// A comfortably future deadline must not report.
	if err := p.SubmitUntil(NormPriority, telemetry.Now()+int64(time.Hour), func(Priority) { ran <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	<-ran
	if got := p.Stats().DeadlineMisses; got != 1 {
		t.Errorf("pool misses after on-time task = %d, want 1", got)
	}
}

func TestSubmitUntilMissAsync(t *testing.T) {
	misses := collectMisses(t)
	p := NewPool(PoolConfig{Name: "async-dl", Min: 1, Max: 1})
	defer p.Shutdown()

	// Block the single worker so the deadlined task waits in the queue past
	// its deadline.
	gate := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(NormPriority, func(Priority) { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started

	done := make(chan struct{})
	if err := p.SubmitUntil(NormPriority, telemetry.Now()+int64(10*time.Millisecond), func(Priority) { close(done) }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let the deadline lapse while queued
	close(gate)
	<-done

	if got := p.Stats().DeadlineMisses; got != 1 {
		t.Errorf("pool misses = %d, want 1", got)
	}
	ms := misses()
	if len(ms) != 1 || ms[0].Label != "pool.async-dl" {
		t.Fatalf("misses = %+v", ms)
	}
	if ms[0].Lateness() <= 0 {
		t.Errorf("lateness = %d, want > 0", ms[0].Lateness())
	}
}
