package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// reconfigSend sends one value through out, riding out transient pool
// exhaustion (senders outpacing dispatch is expected in the storm tests).
func reconfigSend(out *OutPort, v int64) error {
	for {
		m, err := out.GetMessage()
		if err != nil {
			if errors.Is(err, ErrPoolEmpty) {
				time.Sleep(20 * time.Microsecond)
				continue
			}
			return err
		}
		m.(*intMsg).value = v
		return out.Send(m, 5)
	}
}

// workerDef builds a counting worker blueprint: each processed message
// bumps hits. The returned def is the "version" a swap installs.
func workerDef(smm *SMM, hits *atomic.Int64) ChildDef {
	return ChildDef{
		Name: "Worker", MemorySize: 1 << 14, Persistent: true,
		Setup: func(w *Component) error {
			_, err := AddInPort(w, smm, InPortConfig{
				Name: "in", Type: intType, BufferSize: 64, Overflow: OverflowBlock,
				Handler: HandlerFunc(func(p *Proc, m Message) error {
					hits.Add(1)
					return nil
				}),
			})
			return err
		},
	}
}

// TestSwapReplacesLiveChildUnderTraffic swaps a live worker version while
// four senders keep the port under sustained load: every sent message must
// be processed by exactly one of the two versions (zero drops), the new
// version must take over, and the pause must stay within the drain bound.
func TestSwapReplacesLiveChildUnderTraffic(t *testing.T) {
	app := newTestApp(t, AppConfig{MsgPoolCapacity: 256})
	var v1, v2 atomic.Int64

	hub, err := app.NewImmortalComponent("Hub", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddOutPort(c, smm, OutPortConfig{
			Name: "work", Type: intType, Dests: []string{"Worker.in"},
		}); err != nil {
			return err
		}
		return c.DefineChild(workerDef(smm, &v1))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}

	out, err := hub.SMM().GetOutPort("Hub.work")
	if err != nil {
		t.Fatal(err)
	}

	const senders = 4
	var sent atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := reconfigSend(out, 1); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				sent.Add(1)
			}
		}()
	}

	time.Sleep(20 * time.Millisecond) // let v1 take real traffic
	st, err := hub.SMM().Swap(workerDef(hub.SMM(), &v2), SwapOptions{DrainTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("swap: %v", err)
	}
	if !st.ReplacedLive || !st.Drained {
		t.Fatalf("swap stats = %+v, want live replace with completed drain", st)
	}
	if st.PauseNs <= 0 || st.PauseNs > int64(2*time.Second) {
		t.Fatalf("swap pause %dns outside (0, drain bound]", st.PauseNs)
	}

	time.Sleep(20 * time.Millisecond) // let v2 take real traffic
	close(stop)
	wg.Wait()
	if err := app.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if v2.Load() == 0 {
		t.Fatal("new version processed nothing after the swap")
	}
	if got, want := v1.Load()+v2.Load(), sent.Load(); got != want {
		t.Fatalf("processed %d (v1=%d v2=%d) != sent %d: messages dropped across the swap",
			got, v1.Load(), v2.Load(), want)
	}
	in := hub.SMM().inPort("Worker.in")
	if _, _, dropped := portStats(in); dropped != 0 {
		t.Fatalf("port dropped %d messages", dropped)
	}
}

// TestChaosHotSwapUnderLoad is the hot-swap soak: eight senders hammer one
// port while versions swap every few milliseconds. Invariant: every
// successful send is processed by exactly one version, across every swap.
func TestChaosHotSwapUnderLoad(t *testing.T) {
	app := newTestApp(t, AppConfig{MsgPoolCapacity: 512})
	const versions = 8
	counters := make([]atomic.Int64, versions)

	hub, err := app.NewImmortalComponent("Hub", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddOutPort(c, smm, OutPortConfig{
			Name: "work", Type: intType, Dests: []string{"Worker.in"},
		}); err != nil {
			return err
		}
		return c.DefineChild(workerDef(smm, &counters[0]))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	out, err := hub.SMM().GetOutPort("Hub.work")
	if err != nil {
		t.Fatal(err)
	}

	var sent atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := reconfigSend(out, 1); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				sent.Add(1)
			}
		}()
	}

	var maxPause int64
	for v := 1; v < versions; v++ {
		time.Sleep(5 * time.Millisecond)
		st, err := hub.SMM().Swap(workerDef(hub.SMM(), &counters[v]), SwapOptions{DrainTimeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("swap to v%d: %v", v, err)
		}
		if st.PauseNs > maxPause {
			maxPause = st.PauseNs
		}
	}
	close(stop)
	wg.Wait()
	if err := app.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}

	var processed int64
	for i := range counters {
		processed += counters[i].Load()
	}
	if processed != sent.Load() {
		t.Fatalf("processed %d != sent %d across %d swaps (max pause %v)",
			processed, sent.Load(), versions-1, time.Duration(maxPause))
	}
	if counters[versions-1].Load() == 0 {
		t.Fatal("final version processed nothing")
	}
	if errs, last := app.Errors(); errs != 0 {
		t.Fatalf("%d handler errors, last: %v", errs, last)
	}
}

// TestChaosRouteRebuildStorm pins the torn-route-rebuild window: eight
// senders traverse the cached route while one goroutine flips destinations
// (Rewire) and another churns a transient child through Connect/Disconnect.
// Under -race this exercises buildRoutes racing setDests/detach; the
// invariant is zero send errors, zero port drops, and no handler errors.
func TestChaosRouteRebuildStorm(t *testing.T) {
	app := newTestApp(t, AppConfig{MsgPoolCapacity: 512})
	var hitA, hitB, hitC atomic.Int64

	sink := func(name string, hits *atomic.Int64, smm *SMM) ChildDef {
		return ChildDef{
			Name: name, MemorySize: 1 << 14, Persistent: true,
			Setup: func(w *Component) error {
				_, err := AddInPort(w, smm, InPortConfig{
					Name: "in", Type: intType, BufferSize: 64, Overflow: OverflowBlock,
					Handler: HandlerFunc(func(p *Proc, m Message) error {
						hits.Add(1)
						return nil
					}),
				})
				return err
			},
		}
	}

	hub, err := app.NewImmortalComponent("Hub", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddOutPort(c, smm, OutPortConfig{
			Name: "out", Type: intType, Dests: []string{"A.in"},
		}); err != nil {
			return err
		}
		if _, err := AddOutPort(c, smm, OutPortConfig{
			Name: "churn", Type: intType, Dests: []string{"C.in"},
		}); err != nil {
			return err
		}
		if err := c.DefineChild(sink("A", &hitA, smm)); err != nil {
			return err
		}
		if err := c.DefineChild(sink("B", &hitB, smm)); err != nil {
			return err
		}
		// C is transient: Disconnect disposes it mid-traffic, so senders race
		// detach/unbind on the slow resolution path.
		def := sink("C", &hitC, smm)
		def.Persistent = false
		return c.DefineChild(def)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	smm := hub.SMM()
	out, err := smm.GetOutPort("Hub.out")
	if err != nil {
		t.Fatal(err)
	}
	churn, err := smm.GetOutPort("Hub.churn")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sendErrs atomic.Int64

	// 8 senders: 6 on the rewired port, 2 on the churned child.
	for i := 0; i < 8; i++ {
		p := out
		if i >= 6 {
			p = churn
		}
		wg.Add(1)
		go func(p *OutPort) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := reconfigSend(p, 1); err != nil {
					sendErrs.Add(1)
					t.Errorf("send on %s: %v", p.qname, err)
					return
				}
			}
		}(p)
	}

	// Route flipper: single destination A, single B, fan-out to both.
	wg.Add(1)
	go func() {
		defer wg.Done()
		flips := [][]string{{"B.in"}, {"A.in", "B.in"}, {"A.in"}}
		for i := 0; i < 300; i++ {
			if err := smm.Rewire("Hub.out", flips[i%len(flips)]); err != nil {
				t.Errorf("rewire: %v", err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Connect/Disconnect churn on the transient child.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			h, err := smm.Connect("C")
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			time.Sleep(50 * time.Microsecond)
			h.Disconnect()
		}
	}()

	time.Sleep(80 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := app.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if sendErrs.Load() != 0 {
		t.Fatalf("%d send errors during the storm", sendErrs.Load())
	}
	for _, q := range []string{"A.in", "B.in", "C.in"} {
		if _, _, dropped := portStats(smm.inPort(q)); dropped != 0 {
			t.Fatalf("%s dropped %d messages", q, dropped)
		}
	}
	if errs, last := app.Errors(); errs != 0 {
		t.Fatalf("%d handler errors, last: %v", errs, last)
	}
	// After the flips settle the cache must follow the final list exactly.
	if err := smm.Rewire("Hub.out", []string{"A.in"}); err != nil {
		t.Fatal(err)
	}
	before := hitA.Load()
	if err := reconfigSend(out, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for hitA.Load() == before {
		if time.Now().After(deadline) {
			t.Fatal("send after final rewire never reached A")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestRouteGenPropertyFlips is the generation-flip property test: across a
// seeded random interleaving of re-registrations, rewires, connect/
// disconnect cycles, and swaps, routeGen bumps exactly when the destination
// graph changes — and never during Reusable shell revival.
func TestRouteGenPropertyFlips(t *testing.T) {
	app := newTestApp(t, AppConfig{MsgPoolCapacity: 64})
	var hits atomic.Int64
	processed := make(chan struct{}, 64)

	reusable := func(smm *SMM) ChildDef {
		return ChildDef{
			Name: "R", MemorySize: 1 << 14, Reusable: true,
			Setup: func(w *Component) error {
				_, err := AddInPort(w, smm, InPortConfig{
					Name: "in", Type: intType, BufferSize: 32, Overflow: OverflowBlock,
					Handler: HandlerFunc(func(p *Proc, m Message) error {
						hits.Add(1)
						processed <- struct{}{}
						return nil
					}),
				})
				return err
			},
		}
	}

	hub, err := app.NewImmortalComponent("Hub", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddInPort(c, smm, InPortConfig{
			Name: "sinkA", Type: intType,
			Handler: HandlerFunc(func(p *Proc, m Message) error { return nil }),
		}); err != nil {
			return err
		}
		if _, err := AddInPort(c, smm, InPortConfig{
			Name: "sinkB", Type: intType,
			Handler: HandlerFunc(func(p *Proc, m Message) error { return nil }),
		}); err != nil {
			return err
		}
		if _, err := AddOutPort(c, smm, OutPortConfig{
			Name: "out", Type: intType, Dests: []string{"Hub.sinkA"},
		}); err != nil {
			return err
		}
		if _, err := AddOutPort(c, smm, OutPortConfig{
			Name: "toR", Type: intType, Dests: []string{"R.in"},
		}); err != nil {
			return err
		}
		return c.DefineChild(reusable(smm))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	smm := hub.SMM()
	toR, err := smm.GetOutPort("Hub.toR")
	if err != nil {
		t.Fatal(err)
	}

	// reviveOnce drives one full Reusable cycle: deliver (instantiating or
	// reviving the shell), wait for processing, wait for the quiescent shell
	// to stash. Neither half may bump the generation after the first
	// instantiation has registered the port.
	reviveOnce := func() {
		t.Helper()
		if err := reconfigSend(toR, 1); err != nil {
			t.Fatal(err)
		}
		select {
		case <-processed:
		case <-time.After(5 * time.Second):
			t.Fatal("reusable child never processed")
		}
		if err := app.Drain(5 * time.Second); err != nil || smm.Child("R") != nil {
			t.Fatalf("reusable child never quiesced: %v", err)
		}
	}

	// Prime: the first delivery instantiates R and registers R.in (one
	// legitimate bump); everything after is the steady property.
	reviveOnce()

	rng := rand.New(rand.NewSource(61))
	cur := []string{"Hub.sinkA"}
	lists := [][]string{{"Hub.sinkA"}, {"Hub.sinkB"}, {"Hub.sinkA", "Hub.sinkB"}}
	for i := 0; i < 400; i++ {
		gen := smm.RouteGeneration()
		switch rng.Intn(5) {
		case 0: // re-register with identical dests: no bump
			if _, err := AddOutPort(hub, smm, OutPortConfig{Name: "out", Type: intType, Dests: cur}); err != nil {
				t.Fatal(err)
			}
			if g := smm.RouteGeneration(); g != gen {
				t.Fatalf("op %d: same-dests re-registration bumped gen %d→%d", i, gen, g)
			}
		case 1: // re-register or rewire with random dests: bump iff changed
			next := lists[rng.Intn(len(lists))]
			changed := !destsEqual(cur, next)
			if rng.Intn(2) == 0 {
				if _, err := AddOutPort(hub, smm, OutPortConfig{Name: "out", Type: intType, Dests: next}); err != nil {
					t.Fatal(err)
				}
			} else if err := smm.Rewire("Hub.out", next); err != nil {
				t.Fatal(err)
			}
			g := smm.RouteGeneration()
			if changed && g != gen+1 {
				t.Fatalf("op %d: dest change bumped gen %d→%d, want exactly +1", i, gen, g)
			}
			if !changed && g != gen {
				t.Fatalf("op %d: unchanged dests bumped gen %d→%d", i, gen, g)
			}
			cur = next
		case 2: // connect/disconnect: registration-free, no bump
			h, err := smm.Connect("R")
			if err != nil {
				t.Fatal(err)
			}
			h.Disconnect()
			if err := app.Drain(5 * time.Second); err != nil || smm.Child("R") != nil {
				t.Fatalf("connected child never quiesced: %v", err)
			}
			if g := smm.RouteGeneration(); g != gen {
				t.Fatalf("op %d: connect/disconnect bumped gen %d→%d", i, gen, g)
			}
		case 3: // reusable revival: never bumps
			reviveOnce()
			if g := smm.RouteGeneration(); g != gen {
				t.Fatalf("op %d: shell revival bumped gen %d→%d", i, gen, g)
			}
		case 4: // swap: the graph rebinds, exactly one bump
			if _, err := smm.Swap(reusable(smm), SwapOptions{DrainTimeout: 5 * time.Second}); err != nil {
				t.Fatal(err)
			}
			if g := smm.RouteGeneration(); g != gen+1 {
				t.Fatalf("op %d: swap bumped gen %d→%d, want exactly +1", i, gen, g)
			}
		}
	}
}

// TestDrainAndTerminate exercises the mission lifecycle: phases, bounded
// drain of queued work, drain timeout on stuck work, and the Stop that
// terminates it.
func TestDrainAndTerminate(t *testing.T) {
	app := newTestApp(t, AppConfig{MsgPoolCapacity: 64})
	release := make(chan struct{})
	var done atomic.Int64

	comp, err := app.NewImmortalComponent("Slow", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddInPort(c, smm, InPortConfig{
			Name: "in", Type: intType, BufferSize: 32, Overflow: OverflowBlock,
			Handler: HandlerFunc(func(p *Proc, m Message) error {
				<-release
				done.Add(1)
				return nil
			}),
		}); err != nil {
			return err
		}
		_, err := AddOutPort(c, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"Slow.in"}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}

	out, err := comp.SMM().GetOutPort("Slow.out")
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		if err := reconfigSend(out, int64(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Stuck work: the bounded drain must report the timeout, not hang.
	if err := app.Drain(30 * time.Millisecond); !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("drain of stuck work = %v, want ErrDrainTimeout", err)
	}

	close(release)
	if err := app.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if done.Load() != n {
		t.Fatalf("drained with %d/%d processed", done.Load(), n)
	}

	app.Stop()
	if err := app.Drain(time.Second); !errors.Is(err, ErrStopped) {
		t.Fatalf("drain after stop = %v, want ErrStopped", err)
	}
}

// heldDeliveryApp starts an App with one delivery parked in its handler until
// release is called.
func heldDeliveryApp(t *testing.T) (app *App, release func()) {
	t.Helper()
	app, err := NewApp(AppConfig{Name: "held"})
	if err != nil {
		t.Fatal(err)
	}
	entered, gate := make(chan struct{}), make(chan struct{})
	comp, err := app.NewImmortalComponent("G", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddInPort(c, smm, InPortConfig{
			Name: "in", Type: intType,
			Handler: HandlerFunc(func(*Proc, Message) error {
				close(entered)
				<-gate
				return nil
			}),
		}); err != nil {
			return err
		}
		_, err := AddOutPort(c, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"G.in"}})
		return err
	})
	if err == nil {
		err = app.Start()
	}
	if err != nil {
		t.Fatal(err)
	}
	out, _ := comp.SMM().GetOutPort("G.out")
	if err := reconfigSend(out, 1); err != nil {
		t.Fatal(err)
	}
	<-entered
	var once sync.Once
	return app, func() { once.Do(func() { close(gate) }) }
}

// Overlapping Drains each return once the held delivery completes and leave
// the app running, and a Stop landing mid-drain stays stopped: the Drain
// after each row answers nil on a running app and ErrStopped on a stopped
// one. Each row runs 50 times on an App whose one delivery is held.
func TestDrainPhaseUnderOverlap(t *testing.T) {
	drain := func(app *App, errs chan<- error) { errs <- app.Drain(5 * time.Second) }
	cases := []struct {
		name string
		run  func(t *testing.T, app *App, release func())
		want error // what a Drain after the row returns
	}{
		{"two overlapping Drains", func(t *testing.T, app *App, release func()) {
			errs := make(chan error, 2)
			go drain(app, errs)
			go drain(app, errs)
			release()
			for i := 0; i < 2; i++ {
				if err := <-errs; err != nil {
					t.Error(err)
				}
			}
		}, nil},
		{"Drain then Stop", func(t *testing.T, app *App, release func()) {
			errs := make(chan error, 1)
			go drain(app, errs)
			stopped := make(chan struct{})
			go func() { app.Stop(); close(stopped) }()
			release()
			<-stopped
			if err := <-errs; err != nil && !errors.Is(err, ErrStopped) {
				t.Error(err)
			}
		}, ErrStopped},
		{"Stop then Drain", func(t *testing.T, app *App, release func()) {
			release()
			app.Stop()
			if err := app.Drain(time.Second); !errors.Is(err, ErrStopped) {
				t.Errorf("drain of a stopped app = %v, want ErrStopped", err)
			}
		}, ErrStopped},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < 50 && !t.Failed(); round++ {
				app, release := heldDeliveryApp(t)
				tc.run(t, app, release)
				if err := app.Drain(time.Second); !errors.Is(err, tc.want) {
					t.Errorf("round %d: drain after the row = %v, want %v", round, err, tc.want)
				}
				release()
				app.Stop()
			}
		})
	}
}

// TestRewireRejectsIllegal checks that illegal rewires are rejected before
// any state changes: unknown ports, unqualified names, type mismatches.
func TestRewireRejectsIllegal(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	comp, err := app.NewImmortalComponent("X", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddInPort(c, smm, InPortConfig{
			Name: "strs", Type: stringType,
			Handler: HandlerFunc(func(p *Proc, m Message) error { return nil }),
		}); err != nil {
			return err
		}
		if _, err := AddInPort(c, smm, InPortConfig{
			Name: "ints", Type: intType,
			Handler: HandlerFunc(func(p *Proc, m Message) error { return nil }),
		}); err != nil {
			return err
		}
		_, err := AddOutPort(c, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"X.ints"}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	smm := comp.SMM()
	gen := smm.RouteGeneration()

	cases := []struct {
		port  string
		dests []string
		want  error
	}{
		{"nope", []string{"X.ints"}, ErrUnknownPort},
		{"X.out", []string{"unqualified"}, ErrBadName},
		{"X.out", []string{"X.strs"}, ErrTypeMismatch},
	}
	for _, tc := range cases {
		if err := smm.Rewire(tc.port, tc.dests); !errors.Is(err, tc.want) {
			t.Errorf("Rewire(%q, %v) = %v, want %v", tc.port, tc.dests, err, tc.want)
		}
	}
	if g := smm.RouteGeneration(); g != gen {
		t.Fatalf("rejected rewires changed gen %d→%d", gen, g)
	}
	// No-op rewire to the same list: accepted, no bump.
	if err := smm.Rewire("X.out", []string{"X.ints"}); err != nil {
		t.Fatal(err)
	}
	if g := smm.RouteGeneration(); g != gen {
		t.Fatalf("no-op rewire changed gen %d→%d", gen, g)
	}
}

// TestSwapRejectsIllegal checks blueprint validation and unknown children.
func TestSwapRejectsIllegal(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	comp, err := app.NewImmortalComponent("X", func(c *Component) error {
		return c.DefineChild(ChildDef{
			Name: "W", MemorySize: 1 << 13,
			Setup: func(w *Component) error { return nil },
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	smm := comp.SMM()
	ok := func(name string) ChildDef {
		return ChildDef{Name: name, MemorySize: 1 << 13, Setup: func(w *Component) error { return nil }}
	}

	if _, err := smm.Swap(ok("Unknown"), SwapOptions{}); !errors.Is(err, ErrUnknownChild) {
		t.Fatalf("swap of unknown child = %v", err)
	}
	bad := ok("W")
	bad.Setup = nil
	if _, err := smm.Swap(bad, SwapOptions{}); err == nil {
		t.Fatal("swap with nil Setup accepted")
	}
	bad = ok("W")
	bad.MemorySize = 0
	if _, err := smm.Swap(bad, SwapOptions{}); err == nil {
		t.Fatal("swap with zero memory accepted")
	}
	if _, err := smm.Swap(ChildDef{Name: "has.dot", MemorySize: 1, Setup: bad.Setup}, SwapOptions{}); err == nil {
		t.Fatal("swap with bad name accepted")
	}

	// A dormant child (never instantiated) swaps without a drain.
	st, err := smm.Swap(ok("W"), SwapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplacedLive {
		t.Fatal("dormant swap reported a live replace")
	}
	if !st.Drained {
		t.Fatal("dormant swap reported an incomplete drain")
	}
}
