package core

import (
	"errors"
	"fmt"
	"runtime"
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
						h.shells = append(h.shells, p.comp)
						h.areaName = append(h.areaName, p.comp.Area().Name())
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

// waitGone blocks until the named child has quiesced: its shell disposed and
// settled, parked or retired, and not in transition.
func waitGone(t *testing.T, smm *SMM, name string) {
	t.Helper()
	c := smm.shell(name)
	if c == nil {
		return
	}
	gone := func() bool {
		w := c.life.Load()
		return w&lifeDisposed != 0 && w&(lifeParked|lifeRetired) != 0
	}
	if !c.changed.Wait(gone, time.Now().Add(2*time.Second)) {
		t.Fatalf("child %q not reclaimed: life word %#x", name, c.life.Load())
	}
}

// TestReusableChildRevivesShell drives several dispose/revive cycles through
// a Reusable child and pins the contract: the identical shell serves every
// message, Setup ran exactly once, the start function ran once per
// instantiation, and the shell keeps the one area it took from the pool,
// reclaimed in place at every quiescence.
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
	for i, name := range h.areaName {
		if name != h.areaName[0] {
			t.Errorf("message %d served in area %q, the shell's is %q", i, name, h.areaName[0])
		}
	}
	// One acquisition, for the build; the parked shell holds the area.
	if created, reused, free := app.ScopePool(1).Stats(); created != 2 || reused != 1 || free != 1 {
		t.Errorf("pool: %d created, %d acquired, %d free; want 2, 1, 1", created, reused, free)
	}
	if g := stateOf(h.shells[0].Area()).gen; g != rounds {
		t.Errorf("area generation %d after %d quiescences, want one reclaim each", g, rounds)
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

// TestReusableQuiesceAtomicAgainstInstantiate races a sender against the
// last Disconnect of a Reusable shell, round after round, so that senders
// land inside its quiescence — forgotten by the SMM, not yet stashed. Such a
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
	for round := int64(0); round < 200; round++ {
		pin, err := smm.Connect("Worker")
		if err != nil {
			t.Fatal(err)
		}
		sent, gate := make(chan error, 1), make(chan struct{})
		go func() {
			<-gate
			sent <- h.sendErr(round)
		}()
		close(gate)
		if round%2 == 0 {
			runtime.Gosched()
		}
		pin.Disconnect()
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		waitRecv(t, h.served)
		waitGone(t, smm, "Worker")
	}

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

// reusableSink defines a Reusable pooled child behind a synchronous port on
// parent and returns the Out port that drives it.
func reusableSink(t *testing.T, parent *Component, name string) *OutPort {
	t.Helper()
	smm := parent.SMM()
	if err := parent.DefineChild(ChildDef{
		Name: name, UsePool: true, Reusable: true,
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
	out, err := AddOutPort(parent, smm, OutPortConfig{Name: "to" + name, Type: intType, Dests: []string{name + ".in"}})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sendOne sends one message and fails the test on an error.
func sendOne(t *testing.T, out *OutPort) {
	t.Helper()
	m, err := out.GetMessage()
	if err == nil {
		err = out.Send(m, sched.NormPriority)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestExecRefusesDisposedInstance runs Exec on a Reusable shell that has
// parked, holding its reclaimed area with its wedge alone. Exec must refuse
// it with ErrStopped and enter nothing: an entrant would keep the area from
// its next in-place reclaim, and one that outlived a retirement would reclaim
// it into the pool under a shell still using it. Exec on the revived
// instance, held by a handle, runs in the same area as ever.
func TestExecRefusesDisposedInstance(t *testing.T) {
	app := newTestApp(t, AppConfig{
		ScopePools: []ScopePoolSpec{{Level: 1, AreaSize: 1 << 12, Count: 1, Grow: true}},
	})
	parent, err := app.NewImmortalComponent("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	smm := parent.SMM()
	out := reusableSink(t, parent, "Sink")
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	sendOne(t, out)
	pool := app.ScopePool(1)
	shell := smm.shell("Sink")
	if !shell.Disposed() {
		t.Fatal("the synchronous child did not park after its one message")
	}
	area := shell.Area()
	untouched := func(when string, gen uint64) {
		t.Helper()
		if st := stateOf(area); st.entrants != 0 || st.wedges != 1 || st.gen != gen {
			t.Errorf("%s: %d entrants, %d wedges, generation %d; want the wedge alone at %d", when, st.entrants, st.wedges, st.gen, gen)
		}
		if created, reused, free := pool.Stats(); created != 1 || reused != 1 || free != 0 {
			t.Errorf("%s: scope pool %d created, %d acquired, %d free; want the shell's one area", when, created, reused, free)
		}
	}
	untouched("parked", 1)

	ran := false
	err = shell.Exec(func(*memory.Context) error { ran = true; return nil })
	if !errors.Is(err, ErrStopped) || ran {
		t.Errorf("Exec on a parked shell: err %v, fn ran %v; want ErrStopped and nothing entered", err, ran)
	}
	untouched("after Exec on the parked shell", 1)

	h, err := smm.Connect("Sink")
	if err != nil {
		t.Fatal(err)
	}
	live := h.Component()
	err = live.Exec(func(ctx *memory.Context) error {
		if ctx.Current() != area {
			t.Errorf("Exec current in %v, want the instance's area %v", ctx.Current(), area)
		}
		return nil
	})
	h.Disconnect()
	if err != nil {
		t.Errorf("Exec on a live instance: %v", err)
	}
	untouched("after the revived instance parked again", 2)
	app.Stop()
	if created, _, free := pool.Stats(); int64(free) != created {
		t.Errorf("after Stop: %d of %d areas free", free, created)
	}
}

// TestReusableParkedShellOwnsItsArea parks two Reusable siblings served from
// one scope pool and checks that each holds an area of its own, pinned by its
// own wedge and nobody else, across revivals. Swapping one out disposes of its
// parked shell: the area goes back to the pool exactly once, and the new
// version's shell takes it.
func TestReusableParkedShellOwnsItsArea(t *testing.T) {
	app := newTestApp(t, AppConfig{
		ScopePools: []ScopePoolSpec{{Level: 1, AreaSize: 1 << 12, Count: 2}},
	})
	parent, err := app.NewImmortalComponent("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	smm := parent.SMM()
	outs := []*OutPort{reusableSink(t, parent, "A"), reusableSink(t, parent, "B")}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	pool := app.ScopePool(1)
	owns := func(when string, names ...string) {
		t.Helper()
		seen := map[*memory.Area]string{}
		for _, name := range names {
			c := smm.shell(name)
			if w := c.life.Load(); w&(lifeParked|lifeRetired) != lifeParked {
				t.Fatalf("%s: %s life word %#x, want parked", when, name, w)
			}
			a := c.Area()
			if other, dup := seen[a]; dup {
				t.Errorf("%s: %s and %s both hold %v", when, other, name, a)
			}
			seen[a] = name
			if st := stateOf(a); c.wedge.Area() != a || st.entrants != 0 || st.wedges != 1 {
				t.Errorf("%s: %s's area %v has %d entrants and %d wedges, its wedge holds %v; want its own wedge alone",
					when, name, a, st.entrants, st.wedges, c.wedge.Area())
			}
		}
		if created, _, free := pool.Stats(); int64(free+len(names)) != created {
			t.Errorf("%s: %d areas free and %d held by parked shells, %d created", when, free, len(names), created)
		}
	}
	for round := 0; round < 3; round++ {
		for _, out := range outs {
			sendOne(t, out)
		}
		owns(fmt.Sprintf("round %d", round+1), "A", "B")
	}

	old := smm.shell("A")
	if _, err := smm.Swap(*old.def, SwapOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, free := pool.Stats(); free != 1 {
		t.Errorf("after swapping the parked A out: %d areas free, want its one", free)
	}
	sendOne(t, outs[0])
	if smm.shell("A") == old {
		t.Fatal("the swapped-out shell served again")
	}
	owns("after the swap", "A", "B")
}
