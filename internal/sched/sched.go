// Package sched models RTSJ real-time thread scheduling for the Compadres
// runtime. Go offers no strict thread priorities, so the package reproduces
// the observable property the paper relies on: when messages carry
// priorities, a port's thread pool executes the highest-priority pending
// handler first (FIFO within a priority), and the executing thread inherits
// the message's priority, exactly as §2.2 of the paper describes.
//
// A Pool is either shared among several In ports or dedicated to one; it
// starts with Min workers and grows on backlog up to Max. The paper's "if
// these values are 0, the calling thread executes the process() method of the
// In port synchronously" is not a pool at all: such a port calls its handler
// itself (core.SMM.deliver) and owns none.
//
// The pending queue is a fixed array of per-priority FIFO rings — one ring
// per RTSJ priority level — plus a bitmask of non-empty levels. Selecting
// the next task is a single find-highest-set-bit over the mask, which for
// the 31-level band is both faster and more predictable than a binary heap,
// and a ring dequeue is O(1) with no sifting. Submission from the steady
// state allocates nothing: the rings keep their capacity and the task is a
// plain function value.
package sched

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Priority is an RTSJ-style real-time priority. Higher values run first.
type Priority int

// Priority bounds mirror the RTSJ real-time priority band.
const (
	MinPriority  Priority = 1
	NormPriority Priority = 15
	MaxPriority  Priority = 31
)

// numPriorities is the size of the real-time priority band.
const numPriorities = int(MaxPriority-MinPriority) + 1

// ringInitialCap is the slot count a priority ring starts with the first
// time that level is used; rings grow by doubling and never shrink, so the
// steady state enqueues without allocating.
const ringInitialCap = 8

// ErrPoolShutdown reports a Submit after Shutdown.
var ErrPoolShutdown = errors.New("sched: pool is shut down")

// Valid reports whether p lies within the real-time priority band.
func (p Priority) Valid() bool { return p >= MinPriority && p <= MaxPriority }

// Clamp returns p limited to the real-time priority band.
func (p Priority) Clamp() Priority {
	if p < MinPriority {
		return MinPriority
	}
	if p > MaxPriority {
		return MaxPriority
	}
	return p
}

// PoolConfig parameterises a Pool. It mirrors the CCL PortAttributes:
// threadpool strategy is expressed by sharing (or not) the constructed Pool,
// and Min/Max map to MinThreadpoolSize/MaxThreadpoolSize.
type PoolConfig struct {
	// Name is used in diagnostics.
	Name string
	// Min is the number of workers started eagerly.
	Min int
	// Max bounds worker growth; it is raised to at least Min, and to one.
	Max int
}

// Pool dispatches prioritised tasks to a bounded set of workers.
type Pool struct {
	name string
	min  int
	max  int

	mu       sync.Mutex
	cond     *sync.Cond
	rings    [numPriorities]ring // index 0 = MinPriority
	mask     uint32              // bit i set ⇔ rings[i] non-empty
	queued   int
	workers  int
	idle     int
	shutdown bool
	done     sync.WaitGroup

	// Activity counters are atomics so the post-task accounting never takes
	// the pool mutex for bookkeeping.
	executed atomic.Int64
	spawned  atomic.Int64
	maxQueue atomic.Int64

	gauges *telemetry.GaugeHandle
}

// PoolStats is a snapshot of pool activity.
type PoolStats struct {
	// Workers is the current worker count.
	Workers int
	// Spawned is the total number of workers ever started.
	Spawned int64
	// Executed is the number of tasks completed.
	Executed int64
	// MaxQueue is the high-water mark of the pending queue.
	MaxQueue int
}

// NewPool creates a pool per cfg and starts cfg.Min workers.
func NewPool(cfg PoolConfig) *Pool {
	minWorkers := cfg.Min
	if minWorkers < 0 {
		minWorkers = 0
	}
	maxWorkers := cfg.Max
	if maxWorkers < minWorkers {
		maxWorkers = minWorkers
	}
	if maxWorkers < 1 {
		maxWorkers = 1
	}
	p := &Pool{name: cfg.Name, min: minWorkers, max: maxWorkers}
	p.cond = sync.NewCond(&p.mu)
	label := "pool"
	if cfg.Name != "" {
		label = "pool." + cfg.Name
	}
	p.gauges = telemetry.Default.RegisterGauges(label, map[string]func() int64{
		"pool_workers":   func() int64 { p.mu.Lock(); defer p.mu.Unlock(); return int64(p.workers) },
		"pool_executed":  func() int64 { return p.executed.Load() },
		"pool_queue_max": func() int64 { return p.maxQueue.Load() },
	})
	p.mu.Lock()
	for i := 0; i < p.min; i++ {
		p.spawnLocked()
	}
	p.mu.Unlock()
	return p
}

// Submit schedules fn at the given priority. The worker that eventually runs
// fn passes the (clamped) priority through, modelling priority inheritance
// from the message.
func (p *Pool) Submit(prio Priority, fn func(Priority)) error {
	prio = prio.Clamp()
	p.mu.Lock()
	if p.shutdown {
		p.mu.Unlock()
		return ErrPoolShutdown
	}
	idx := int(prio - MinPriority)
	p.rings[idx].push(fn)
	p.mask |= 1 << uint(idx)
	p.queued++
	if q := int64(p.queued); q > p.maxQueue.Load() {
		p.maxQueue.Store(q)
	}
	// Grow toward min(max, backlog): spawn enough workers to cover every
	// queued task the currently idle workers will not absorb. Growing only
	// when idle == 0 under-provisions a burst — an idle-but-not-yet-woken
	// worker suppresses every spawn while the backlog deepens.
	if n := p.queued - p.idle; n > 0 {
		if room := p.max - p.workers; n > room {
			n = room
		}
		for ; n > 0; n-- {
			p.spawnLocked()
		}
	}
	p.mu.Unlock()
	p.cond.Signal()
	return nil
}

// Shutdown drains the pending queue, stops all workers, and waits for them
// to exit. It is idempotent.
func (p *Pool) Shutdown() {
	p.mu.Lock()
	if p.shutdown {
		p.mu.Unlock()
		p.done.Wait()
		return
	}
	p.shutdown = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.done.Wait()
	p.gauges.Unregister()
}

// Stats returns a snapshot of pool activity.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	workers := p.workers
	p.mu.Unlock()
	return PoolStats{
		Workers:  workers,
		Spawned:  p.spawned.Load(),
		Executed: p.executed.Load(),
		MaxQueue: int(p.maxQueue.Load()),
	}
}

// String summarises the pool for diagnostics.
func (p *Pool) String() string {
	s := p.Stats()
	return fmt.Sprintf("pool %q (workers %d, executed %d, maxq %d)", p.name, s.Workers, s.Executed, s.MaxQueue)
}

func (p *Pool) spawnLocked() {
	p.workers++
	p.spawned.Add(1)
	p.done.Add(1)
	go p.run()
}

func (p *Pool) run() {
	defer p.done.Done()
	for {
		p.mu.Lock()
		for p.mask == 0 && !p.shutdown {
			p.idle++
			p.cond.Wait()
			p.idle--
		}
		if p.mask == 0 && p.shutdown {
			p.workers--
			p.mu.Unlock()
			return
		}
		// Highest non-empty priority level: one find-MSB over the mask.
		idx := 31 - bits.LeadingZeros32(p.mask)
		fn := p.rings[idx].pop()
		if p.rings[idx].empty() {
			p.mask &^= 1 << uint(idx)
		}
		p.queued--
		p.mu.Unlock()

		fn(Priority(idx) + MinPriority)
		p.executed.Add(1)
	}
}

// ring is a growable circular FIFO of tasks for one priority level. Slots
// are reused in place, so a warmed ring enqueues and dequeues without
// allocating.
type ring struct {
	buf  []func(Priority)
	head int // index of the oldest element
	n    int // number of queued elements
}

func (r *ring) empty() bool { return r.n == 0 }

func (r *ring) push(t func(Priority)) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = t
	r.n++
}

func (r *ring) pop() func(Priority) {
	t := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return t
}

// grow doubles the ring (capacities stay powers of two so the index mask
// works), copying the live window to the front.
func (r *ring) grow() {
	newCap := len(r.buf) * 2
	if newCap == 0 {
		newCap = ringInitialCap
	}
	nb := make([]func(Priority), newCap)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = nb, 0
}
