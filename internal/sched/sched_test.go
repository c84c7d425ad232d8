package sched

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestPriorityClampAndValid(t *testing.T) {
	tests := []struct {
		give  Priority
		want  Priority
		valid bool
	}{
		{-5, MinPriority, false},
		{0, MinPriority, false},
		{MinPriority, MinPriority, true},
		{NormPriority, NormPriority, true},
		{MaxPriority, MaxPriority, true},
		{MaxPriority + 1, MaxPriority, false},
		{100, MaxPriority, false},
	}
	for _, tt := range tests {
		if got := tt.give.Clamp(); got != tt.want {
			t.Errorf("Clamp(%d) = %d, want %d", tt.give, got, tt.want)
		}
		if got := tt.give.Valid(); got != tt.valid {
			t.Errorf("Valid(%d) = %v, want %v", tt.give, got, tt.valid)
		}
	}
}

func TestPriorityOrderingSingleWorker(t *testing.T) {
	p := NewPool(PoolConfig{Name: "ordered", Min: 1, Max: 1})
	defer p.Shutdown()

	var mu sync.Mutex
	var order []int
	block := make(chan struct{})
	started := make(chan struct{})

	// First task occupies the single worker so the rest queue up.
	if err := p.Submit(NormPriority, func(Priority) {
		close(started)
		<-block
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	done := make(chan struct{}, 6)
	submit := func(prio Priority, id int) {
		if err := p.Submit(prio, func(Priority) {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			done <- struct{}{}
		}); err != nil {
			t.Error(err)
		}
	}
	// Submit in a scrambled order; ids encode (priority, fifo-rank).
	submit(5, 3)
	submit(20, 1)
	submit(5, 4) // same priority as id 3, must run after it (FIFO)
	submit(10, 2)
	submit(1, 5)
	submit(1, 6)

	close(block)
	for i := 0; i < 6; i++ {
		<-done
	}

	mu.Lock()
	defer mu.Unlock()
	want := []int{1, 2, 3, 4, 5, 6}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", order, want)
		}
	}
}

func TestPoolGrowsToMax(t *testing.T) {
	p := NewPool(PoolConfig{Name: "grow", Min: 1, Max: 4})
	defer p.Shutdown()

	const tasks = 8
	block := make(chan struct{})
	var running atomic.Int32
	var peak atomic.Int32
	var wg sync.WaitGroup
	wg.Add(tasks)
	for i := 0; i < tasks; i++ {
		if err := p.Submit(NormPriority, func(Priority) {
			n := running.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			<-block
			running.Add(-1)
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	// All four workers should eventually be busy.
	for peak.Load() < 4 {
		// The growth happens on Submit; tasks are already queued, so just
		// yield until workers pick them up.
	}
	close(block)
	wg.Wait()

	s := p.Stats()
	if s.Spawned != 4 {
		t.Errorf("spawned = %d, want 4", s.Spawned)
	}
	if s.Executed != tasks {
		t.Errorf("executed = %d, want %d", s.Executed, tasks)
	}
	if s.MaxQueue < 1 {
		t.Errorf("max queue = %d, want >= 1", s.MaxQueue)
	}
}

func TestPoolMaxRaisedToMin(t *testing.T) {
	p := NewPool(PoolConfig{Name: "minmax", Min: 3, Max: 1})
	defer p.Shutdown()
	if s := p.Stats(); s.Workers != 3 {
		t.Errorf("workers = %d, want 3 (max raised to min)", s.Workers)
	}
}

func TestPoolShutdownDrainsQueue(t *testing.T) {
	p := NewPool(PoolConfig{Name: "drain", Min: 1, Max: 1})
	var count atomic.Int32
	block := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(NormPriority, func(Priority) { close(started); <-block; count.Add(1) }); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 5; i++ {
		if err := p.Submit(NormPriority, func(Priority) { count.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	close(block)
	p.Shutdown()
	if got := count.Load(); got != 6 {
		t.Errorf("executed = %d, want 6 (queue drained before shutdown)", got)
	}
	if err := p.Submit(NormPriority, func(Priority) {}); !errors.Is(err, ErrPoolShutdown) {
		t.Errorf("post-shutdown submit err = %v, want ErrPoolShutdown", err)
	}
	// Idempotent.
	p.Shutdown()
}

func TestNegativeConfigNormalised(t *testing.T) {
	p := NewPool(PoolConfig{Name: "neg", Min: -1, Max: -1})
	defer p.Shutdown()
	ran := make(chan struct{})
	if err := p.Submit(NormPriority, func(Priority) { close(ran) }); err != nil {
		t.Fatal(err)
	}
	<-ran // a pool always has room for one worker
	if s := p.Stats(); s.Workers != 1 || s.Spawned != 1 {
		t.Errorf("stats = %+v, want one worker grown on demand", s)
	}
}

func TestPoolString(t *testing.T) {
	p := NewPool(PoolConfig{Name: "str", Min: 1, Max: 1})
	defer p.Shutdown()
	if p.String() == "" || p.name != "str" {
		t.Error("diagnostics empty")
	}
}

// Property: with a single worker and a pre-blocked queue, tasks always
// execute in (priority desc, submission order) order, for any priorities.
func TestPropertyPriorityOrdering(t *testing.T) {
	f := func(prios []uint8) bool {
		if len(prios) == 0 {
			return true
		}
		if len(prios) > 32 {
			prios = prios[:32]
		}
		p := NewPool(PoolConfig{Name: "prop", Min: 1, Max: 1})
		defer p.Shutdown()

		block := make(chan struct{})
		started := make(chan struct{})
		_ = p.Submit(MaxPriority, func(Priority) { close(started); <-block })
		<-started

		type rec struct {
			prio Priority
			seq  int
		}
		var mu sync.Mutex
		var got []rec
		var wg sync.WaitGroup
		wg.Add(len(prios))
		for i, pr := range prios {
			prio := Priority(pr).Clamp()
			seq := i
			_ = p.Submit(prio, func(Priority) {
				mu.Lock()
				got = append(got, rec{prio: prio, seq: seq})
				mu.Unlock()
				wg.Done()
			})
		}
		close(block)
		wg.Wait()

		want := make([]rec, len(got))
		copy(want, got)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].prio != want[j].prio {
				return want[i].prio > want[j].prio
			}
			return want[i].seq < want[j].seq
		})
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
