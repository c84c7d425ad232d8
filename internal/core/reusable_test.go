package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/memory"
	"repro/internal/sched"
)

// reusableHarness builds a parent with one Reusable pooled child ("Worker")
// whose In port records, per message, the instance pointer and area that
// served it. Setup and start invocations are counted so the tests can pin
// the revival contract: Setup once per shell, start once per instantiation.
type reusableHarness struct {
	parent *Component

	mu       sync.Mutex
	setups   int
	starts   int
	shells   []*Component
	areaName []string
	served   chan int64
}

func newReusableHarness(t *testing.T, app *App) *reusableHarness {
	t.Helper()
	h := &reusableHarness{served: make(chan int64, 16)}
	parent, err := app.NewImmortalComponent("P", func(c *Component) error {
		smm := c.SMM()
		return c.DefineChild(ChildDef{
			Name:     "Worker",
			UsePool:  true,
			Reusable: true,
			Setup: func(w *Component) error {
				h.mu.Lock()
				h.setups++
				h.mu.Unlock()
				w.SetStart(func(*Proc) error {
					h.mu.Lock()
					h.starts++
					h.mu.Unlock()
					return nil
				})
				_, err := AddInPort(w, smm, InPortConfig{
					Name: "in", Type: intType,
					BufferSize: 32, Overflow: OverflowBlock,
					Handler: HandlerFunc(func(p *Proc, m Message) error {
						h.mu.Lock()
						h.shells = append(h.shells, p.Component())
						h.areaName = append(h.areaName, p.Component().Area().Name())
						h.mu.Unlock()
						h.served <- m.(*intMsg).value
						return nil
					}),
				})
				return err
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AddOutPort(parent, parent.SMM(), OutPortConfig{
		Name: "drive", Type: intType, Dests: []string{"Worker.in"},
	}); err != nil {
		t.Fatal(err)
	}
	h.parent = parent
	return h
}

func (h *reusableHarness) sendErr(v int64) error {
	out, err := h.parent.SMM().GetOutPort("drive")
	if err != nil {
		return err
	}
	// The message pool is bounded; under the storm test many senders hold
	// messages at once, so back off briefly when it runs dry.
	var m Message
	for {
		m, err = out.GetMessage()
		if err == nil {
			break
		}
		if !errors.Is(err, ErrPoolEmpty) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	m.(*intMsg).value = v
	return out.Send(m, sched.NormPriority)
}

func (h *reusableHarness) send(t *testing.T, v int64) {
	t.Helper()
	if err := h.sendErr(v); err != nil {
		t.Fatal(err)
	}
}

// waitGone blocks until the named child has quiesced out of the SMM.
func waitGone(t *testing.T, smm *SMM, name string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for smm.Child(name) != nil {
		if time.Now().After(deadline) {
			t.Fatalf("child %q not reclaimed", name)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReusableChildRevivesShell drives several dispose/revive cycles through
// a Reusable child and pins the contract: the identical shell serves every
// message, Setup ran exactly once, the start function ran once per
// instantiation, and the scoped area still cycles through the pool.
func TestReusableChildRevivesShell(t *testing.T) {
	app := newTestApp(t, AppConfig{
		ScopePools: []ScopePoolSpec{{Level: 1, AreaSize: 1 << 14, Count: 2}},
	})
	h := newReusableHarness(t, app)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}

	const rounds = 5
	for i := int64(0); i < rounds; i++ {
		h.send(t, i)
		if v := waitRecv(t, h.served); v != i {
			t.Fatalf("round %d: served %d", i, v)
		}
		// Each round must fully quiesce so the next send is a revival, not a
		// delivery into the still-live instance.
		waitGone(t, h.parent.SMM(), "Worker")
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.setups != 1 {
		t.Errorf("Setup ran %d times, want 1", h.setups)
	}
	if h.starts != rounds {
		t.Errorf("start ran %d times, want %d", h.starts, rounds)
	}
	if len(h.shells) != rounds {
		t.Fatalf("served %d messages, want %d", len(h.shells), rounds)
	}
	for i, c := range h.shells {
		if c != h.shells[0] {
			t.Errorf("message %d served by a different shell", i)
		}
	}
	// The memory semantics are untouched: every instantiation went through
	// the pool (pre-created areas only, heavy reuse).
	created, reused, _ := app.ScopePool(1).Stats()
	if created != 2 {
		t.Errorf("pool created = %d, want 2", created)
	}
	if reused < rounds-2 {
		t.Errorf("pool reused = %d, want >= %d", reused, rounds-2)
	}
	if n, err := app.Errors(); n != 0 {
		t.Errorf("handler errors: %d (%v)", n, err)
	}
}

// TestReusableChildConcurrentStorm hammers a Reusable child from many
// goroutines so revivals race deliveries through the stale-but-valid port
// binding; every message must be served exactly once with no errors.
func TestReusableChildConcurrentStorm(t *testing.T) {
	app := newTestApp(t, AppConfig{
		ScopePools: []ScopePoolSpec{{Level: 1, AreaSize: 1 << 14, Count: 4}},
	})
	h := newReusableHarness(t, app)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}

	const senders, perSender = 8, 50
	h.served = make(chan int64, senders*perSender)
	errCh := make(chan error, senders)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := h.sendErr(int64(g*perSender + i)); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	got := make(map[int64]bool, senders*perSender)
	for i := 0; i < senders*perSender; i++ {
		got[waitRecv(t, h.served)] = true
	}
	if len(got) != senders*perSender {
		t.Errorf("served %d distinct values, want %d", len(got), senders*perSender)
	}
	if n, err := app.Errors(); n != 0 {
		t.Errorf("handler errors: %d (%v)", n, err)
	}
}

// TestReusableQuiesceAtomicAgainstInstantiate opens the window inside a
// Reusable shell's quiescence — forgotten by the SMM, not yet stashed; the
// area's finalizer runs exactly there — and lets a sender arrive in it. The
// sender must wait for the stash and revive that shell. If it could
// instantiate instead, it would build a second shell and rebind the port to
// it, the first would land in the stash behind it, and the next revival
// would serve from a shell the port is not bound to: every later send spins
// in resolveIn until "owner kept quiescing".
func TestReusableQuiesceAtomicAgainstInstantiate(t *testing.T) {
	app := newTestApp(t, AppConfig{
		ScopePools: []ScopePoolSpec{{Level: 1, AreaSize: 1 << 14, Count: 2}},
	})
	h := newReusableHarness(t, app)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	smm := h.parent.SMM()
	pin, err := smm.Connect("Worker")
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	pin.Component().Area().AddFinalizer(func() {
		go func() { sent <- h.sendErr(1) }()
		select {
		case err := <-sent:
			sent <- err // the sender got through the window; keep its result
		case <-time.After(100 * time.Millisecond):
			// The sender is parked until the stash lands.
		}
	})
	pin.Disconnect()
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	waitRecv(t, h.served)
	waitGone(t, smm, "Worker")

	live, err := smm.Connect("Worker")
	if err != nil {
		t.Fatal(err)
	}
	defer live.Disconnect()
	smm.mu.Lock()
	port := smm.in["Worker.in"]
	smm.mu.Unlock()
	if owner, _ := port.binding(); owner != live.Component() {
		t.Fatalf("Worker.in is bound to shell %p, the live child is %p", owner, live.Component())
	}
	h.mu.Lock()
	setups := h.setups
	h.mu.Unlock()
	if setups != 1 {
		t.Errorf("Setup ran %d times: a second shell was built inside the quiescence window", setups)
	}
	h.send(t, 2)
	if v := waitRecv(t, h.served); v != 2 {
		t.Errorf("served %d after the revival, want 2", v)
	}
}

// TestExecRefusesDisposedInstance runs Exec on a Reusable shell that has
// parked, its area back in the scope pool. Exec must refuse it with
// ErrStopped and enter nothing: entering the area the shell gave back
// reclaims it on the way out and returns it to the pool a second time, after
// which two acquires hand out one region. Exec on the revived instance, held
// by a handle, runs in its area as ever.
func TestExecRefusesDisposedInstance(t *testing.T) {
	app := newTestApp(t, AppConfig{
		ScopePools: []ScopePoolSpec{{Level: 1, AreaSize: 1 << 12, Count: 1, Grow: true}},
	})
	parent, err := app.NewImmortalComponent("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	smm := parent.SMM()
	if err := parent.DefineChild(ChildDef{
		Name: "Sink", UsePool: true, Reusable: true,
		Setup: func(c *Component) error {
			_, err := AddInPort(c, smm, InPortConfig{
				Name: "in", Type: intType, Threading: ThreadingSynchronous,
				Handler: HandlerFunc(func(*Proc, Message) error { return nil }),
			})
			return err
		},
	}); err != nil {
		t.Fatal(err)
	}
	out, err := AddOutPort(parent, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"Sink.in"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	m, err := out.GetMessage()
	if err == nil {
		err = out.Send(m, sched.NormPriority)
	}
	if err != nil {
		t.Fatal(err)
	}
	pool := app.ScopePool(1)
	balanced := func(when string) {
		t.Helper()
		if created, _, free := pool.Stats(); int64(free) != created {
			t.Errorf("%s: scope pool holds %d free areas, %d created", when, free, created)
		}
	}
	shell := smm.shell("Sink")
	if !shell.Disposed() {
		t.Fatal("the synchronous child did not park after its one message")
	}
	balanced("parked")

	ran := false
	err = shell.Exec(func(*memory.Context) error { ran = true; return nil })
	if !errors.Is(err, ErrStopped) || ran {
		t.Errorf("Exec on a parked shell: err %v, fn ran %v; want ErrStopped and nothing entered", err, ran)
	}
	balanced("after Exec on the parked shell")

	h, err := smm.Connect("Sink")
	if err != nil {
		t.Fatal(err)
	}
	live := h.Component()
	err = live.Exec(func(ctx *memory.Context) error {
		if ctx.Current() != live.Area() {
			t.Errorf("Exec current in %v, want the instance's area %v", ctx.Current(), live.Area())
		}
		return nil
	})
	h.Disconnect()
	if err != nil {
		t.Errorf("Exec on a live instance: %v", err)
	}
	balanced("after the revived instance parked again")
}
