package memory

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestExecuteInAreaNestedReentrant exercises the ExecuteInArea stack-index
// cache under nesting and re-entrancy: alternating targets, repeated
// crossings, and a stale-index scenario (the cached index outlives a pop
// and repush that moves the target's position).
func TestExecuteInAreaNestedReentrant(t *testing.T) {
	m := NewModel(Config{})
	a := m.NewLTScoped("a", 4096)
	b := m.NewLTScoped("b", 4096)

	ctx := m.NewNoHeapContext()
	err := ctx.EnterChain([]*Area{a, b}, func(ic *Context) error {
		// Repeated crossings to the same ancestor: second hit uses the
		// cached index.
		for i := 0; i < 3; i++ {
			if err := ic.ExecuteInArea(a, func(xc *Context) error {
				if xc.Current() != a {
					t.Errorf("crossing %d: current = %q, want a", i, xc.Current().Name())
				}
				// Nested re-entrant crossing back into b from within the
				// a-crossing (b is still on the stack below the crossing).
				return xc.ExecuteInArea(b, func(bc *Context) error {
					if bc.Current() != b {
						t.Errorf("nested crossing: current = %q, want b", bc.Current().Name())
					}
					_, aerr := bc.Alloc(16)
					return aerr
				})
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Depth() != 1 {
		t.Fatalf("depth after crossings = %d, want 1", ctx.Depth())
	}

	// Stale-index scenario: prime the cache with a at stack index 1, exit,
	// then rebuild a deeper stack where a sits at index 2. The cached index
	// is wrong but validated against the live stack, so the walk must still
	// find a.
	c := m.NewLTScoped("c", 4096)
	err = ctx.EnterChain([]*Area{c, a}, func(ic *Context) error {
		return ic.ExecuteInArea(a, func(xc *Context) error {
			if xc.Current() != a {
				t.Errorf("current = %q, want a", xc.Current().Name())
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	// And a target that left the stack entirely must be rejected despite a
	// warm cache entry pointing at its old position.
	err = ctx.ExecuteInArea(a, func(*Context) error { return nil })
	if !errors.Is(err, ErrNotOnStack) {
		t.Fatalf("err = %v, want ErrNotOnStack", err)
	}
}

// TestEnterChainRaceStorm is the -race soak for Area.enter's lock-free
// path: many contexts hammer the same two-level chain while the areas cycle
// through reclaim (every time occupancy hits zero) and a disruptor
// periodically re-parents the head of the chain under a foreign area. The
// invariant — enforced by allocating inside every successful entry and
// checking Ref liveness before exit — is that a successful EnterChain means
// every level was genuinely active and correctly parented for the full
// critical section.
func TestEnterChainRaceStorm(t *testing.T) {
	m := NewModel(Config{})
	a := m.NewLTScoped("a", 1<<16)
	b := m.NewLTScoped("b", 1<<16)
	foreign := m.NewLTScoped("foreign", 4096)

	wf, err := newWedge(foreign, m.Immortal())
	if err != nil {
		t.Fatal(err)
	}
	defer wf.Release()

	const (
		workers = 8
		iters   = 2000
	)
	var (
		workerWG  sync.WaitGroup
		entered   atomic.Int64
		rejected  atomic.Int64
		staleRefs atomic.Int64
	)
	chain := []*Area{a, b}
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			ctx := m.NewNoHeapContext()
			for i := 0; i < iters; i++ {
				if i%128 == 0 {
					// Hand the single-core scheduler to the disruptor so the
					// reject/re-walk races actually occur mid-storm.
					runtime.Gosched()
				}
				err := ctx.EnterChain(chain, func(ic *Context) error {
					ref, aerr := ic.Alloc(8)
					if aerr != nil {
						return aerr
					}
					// While we are an entrant the scope cannot be
					// reclaimed; an entry that raced a reclaim would surface
					// here as an invalid Ref into a scope we believe we hold
					// open.
					if !ref.Valid() {
						staleRefs.Add(1)
					}
					entered.Add(1)
					return nil
				})
				if err != nil {
					// Losing the parent race to the disruptor is expected;
					// anything else is not.
					if !errors.Is(err, ErrScopedCycle) && !errors.Is(err, ErrOutOfMemory) {
						t.Errorf("worker enter: %v", err)
						return
					}
					rejected.Add(1)
				}
			}
		}()
	}

	// Disruptor: whenever it can claim a as first holder, parent it under
	// the foreign area for a moment — a context entering (immortal→a→b)
	// meanwhile must be rejected, never let in. The handshake
	// (wait for fresh worker entries between disruptions) guarantees the
	// two sides genuinely interleave: a tight pin loop on a single-core
	// host would otherwise starve every worker into rejection, and a
	// free-running one could finish before the workers start.
	stop := make(chan struct{})
	disruptorDone := make(chan struct{})
	var disruptions atomic.Int64
	go func() {
		defer close(disruptorDone)
		for {
			target := entered.Load() + 16
			for entered.Load() < target {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
			if w, err := newWedge(a, foreign); err == nil {
				disruptions.Add(1)
				w.Release()
			}
		}
	}()

	workerWG.Wait()
	close(stop)
	<-disruptorDone

	if n := staleRefs.Load(); n != 0 {
		t.Fatalf("%d allocations landed in a stale (reclaimed) scope", n)
	}
	if entered.Load() == 0 {
		t.Fatal("storm made no successful entries")
	}
	t.Logf("entered=%d rejected=%d disruptions=%d", entered.Load(), rejected.Load(), disruptions.Load())
}
