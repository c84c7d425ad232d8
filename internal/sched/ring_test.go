package sched

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRingWrapAroundFIFO exercises the per-priority ring across growth and
// wrap-around boundaries.
func TestRingWrapAroundFIFO(t *testing.T) {
	var r ring
	var got []int
	push := func(v int) { r.push(func(Priority) { got = append(got, v) }) }
	pop := func() { r.pop()(NormPriority) }

	next := 0
	for round := 0; round < 5; round++ {
		for i := 0; i < 5+round*3; i++ {
			push(next)
			next++
		}
		for !r.empty() {
			pop()
		}
	}
	if len(got) != next {
		t.Fatalf("popped %d tasks, pushed %d", len(got), next)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d popped %d; ring is not FIFO", i, v)
		}
	}
}

// TestSubmitGrowthCoversBacklog is a regression test for the growth
// heuristic: a burst of blocking submissions must grow the pool toward
// min(max, backlog) even while a worker sits idle-but-not-yet-woken. The old
// idle==0 gate could leave the whole burst to a single worker, which this
// test detects as a timeout (the first task blocks it forever).
func TestSubmitGrowthCoversBacklog(t *testing.T) {
	const maxWorkers = 8
	p := NewPool(PoolConfig{Name: "burst", Min: 1, Max: maxWorkers})
	defer p.Shutdown()

	release := make(chan struct{})
	var started atomic.Int32
	for i := 0; i < maxWorkers; i++ {
		if err := p.Submit(NormPriority, func(Priority) {
			started.Add(1)
			<-release
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for started.Load() < maxWorkers {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("only %d of %d blocking tasks started; pool did not grow to cover the backlog",
				started.Load(), maxWorkers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	if s := p.Stats(); s.Spawned > maxWorkers {
		t.Errorf("spawned = %d, want <= max (%d)", s.Spawned, maxWorkers)
	}
}

// TestSeededFullOrdering queues a seeded random workload while the single
// worker is blocked, then checks the drain order equals a stable sort by
// (priority descending, submission order).
func TestSeededFullOrdering(t *testing.T) {
	const seed = 20260806
	const tasks = 400
	rng := rand.New(rand.NewSource(seed))

	p := NewPool(PoolConfig{Name: "seeded", Min: 1, Max: 1})
	defer p.Shutdown()

	gate := make(chan struct{})
	startedGate := make(chan struct{})
	if err := p.Submit(MinPriority, func(Priority) { close(startedGate); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-startedGate

	type item struct {
		prio Priority
		seq  int
	}
	queued := make([]item, tasks)
	var mu sync.Mutex
	var got []item
	var wg sync.WaitGroup
	wg.Add(tasks)
	for i := 0; i < tasks; i++ {
		it := item{prio: MinPriority + Priority(rng.Intn(int(MaxPriority))), seq: i}
		queued[i] = it
		if err := p.Submit(it.prio, func(ran Priority) {
			if ran != it.prio {
				t.Errorf("task %d ran at priority %d, submitted at %d", it.seq, ran, it.prio)
			}
			mu.Lock()
			got = append(got, it)
			mu.Unlock()
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	wg.Wait()

	want := make([]item, tasks)
	copy(want, queued)
	sort.SliceStable(want, func(a, b int) bool { return want[a].prio > want[b].prio })
	mu.Lock()
	defer mu.Unlock()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got {prio %d seq %d}, want {prio %d seq %d}",
				i, got[i].prio, got[i].seq, want[i].prio, want[i].seq)
		}
	}
}

// TestConcurrentProducersFIFOWithinPriority has several producers race
// submissions at random priorities into a single-worker pool, then checks
// every (producer, priority) stream drains in its submission order — the
// FIFO-within-priority property under contention. Run with -race.
func TestConcurrentProducersFIFOWithinPriority(t *testing.T) {
	const (
		seed      = 77
		producers = 6
		perProd   = 150
	)
	p := NewPool(PoolConfig{Name: "mp", Min: 1, Max: 1})
	defer p.Shutdown()

	type item struct {
		prod, seq int
		prio      Priority
	}
	var mu sync.Mutex
	var got []item
	var wg sync.WaitGroup
	wg.Add(producers * perProd)

	var pwg sync.WaitGroup
	pwg.Add(producers)
	for pr := 0; pr < producers; pr++ {
		go func(prod int) {
			defer pwg.Done()
			rng := rand.New(rand.NewSource(seed + int64(prod)))
			for i := 0; i < perProd; i++ {
				it := item{prod: prod, seq: i, prio: MinPriority + Priority(rng.Intn(4))}
				if err := p.Submit(it.prio, func(Priority) {
					mu.Lock()
					got = append(got, it)
					mu.Unlock()
					wg.Done()
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(pr)
	}
	pwg.Wait()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	lastSeq := make(map[[2]int]int) // (producer, priority) -> last seq seen
	for _, it := range got {
		k := [2]int{it.prod, int(it.prio)}
		if prev, ok := lastSeq[k]; ok && it.seq < prev {
			t.Fatalf("producer %d priority %d: seq %d drained after %d; not FIFO within priority",
				it.prod, it.prio, it.seq, prev)
		}
		lastSeq[k] = it.seq
	}
	if len(got) != producers*perProd {
		t.Fatalf("drained %d tasks, want %d", len(got), producers*perProd)
	}
}
