package core

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// connectChild instantiates the named child of parent and pins it for the
// test's lifetime.
// scopeTop is where a context stands: its scope stack's depth and top.
type scopeTop struct {
	depth int
	cur   *memory.Area
}

func stackTop(ctx *memory.Context) scopeTop { return scopeTop{ctx.Depth(), ctx.Current()} }

func connectChild(t *testing.T, parent *Component, name string) *Component {
	t.Helper()
	h, err := parent.SMM().Connect(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Disconnect)
	return h.Component()
}

// scopedChild is a persistent child blueprint with nothing but the nested
// blueprints given.
func scopedChild(name string, children ...ChildDef) ChildDef {
	return ChildDef{
		Name: name, MemorySize: 1 << 14, Persistent: true,
		Setup: func(c *Component) error {
			for _, d := range children {
				if err := c.DefineChild(d); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// TestSyncCallScopes pins where a synchronous port's handler runs and what
// getting there costs, by where the sender stands. The receiver C sits three
// scopes down (P ▸ B ▸ C). A bare Send and a sender in an unrelated scope
// enter the whole chain; a sender in C's parent enters C alone; a sender in
// B's sibling A leaves through the shared ancestor P and enters B and C.
// Whichever way, the handler is current in C's area, allocates there, the
// single-parent rule holds, and the sender's scope stack comes back exactly
// as it was — after a handler panic too.
func TestSyncCallScopes(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	type seen struct {
		current, area *memory.Area
		allocErr      error
	}
	var got seen
	top, err := app.NewImmortalComponent("Top", func(c *Component) error {
		if err := c.DefineChild(scopedChild("P", scopedChild("A"), scopedChild("B", scopedChild("C")))); err != nil {
			return err
		}
		return c.DefineChild(scopedChild("X"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	p := connectChild(t, top, "P")
	a := connectChild(t, p, "A")
	b := connectChild(t, p, "B")
	c := connectChild(t, b, "C")
	x := connectChild(t, top, "X")

	// C's port and the port feeding it are mediated by P, their common
	// ancestor (a shadow port, from C's side).
	if _, err := AddInPort(c, p.SMM(), InPortConfig{
		Name: "in", Type: intType, Threading: ThreadingSynchronous,
		Handler: HandlerFunc(func(pr *Proc, m Message) error {
			got.current, got.area = pr.Context().Current(), pr.Component().Area()
			_, got.allocErr = pr.Context().Alloc(32)
			if m.(*intMsg).value < 0 {
				panic("asked to")
			}
			return nil
		}),
	}); err != nil {
		t.Fatal(err)
	}
	out, err := AddOutPort(p, p.SMM(), OutPortConfig{Name: "out", Type: intType, Dests: []string{"C.in"}})
	if err != nil {
		t.Fatal(err)
	}

	enters := telemetry.NewCounter("scope_enter_total")
	for _, tc := range []struct {
		name   string
		sender *Component // nil: a bare Send
		enters int64
	}{
		{"bare Send", nil, 3},
		{"from parent", b, 1},
		{"from sibling", a, 2},
		{"from unrelated scope", x, 3},
	} {
		for _, value := range []int64{1, -1} { // -1: the handler panics
			send := func(proc *Proc) (int64, error) {
				m, err := out.GetMessage()
				if err != nil {
					return 0, err
				}
				m.(*intMsg).value = value
				before := enters.Value()
				err = out.SendFrom(proc, m, sched.NormPriority)
				return enters.Value() - before, err
			}
			got = seen{}
			used := stateOf(c.Area()).used
			errsBefore, _ := app.Errors()
			var entered int64
			var err error
			if tc.sender == nil {
				entered, err = send(nil)
			} else {
				err = tc.sender.Exec(func(ctx *memory.Context) error {
					before := stackTop(ctx)
					var err error
					entered, err = send(NewProc(tc.sender, tc.sender.SMM(), ctx, sched.NormPriority))
					if after := stackTop(ctx); before != after {
						t.Errorf("%s (%d): sender's scope stack %v became %v", tc.name, value, before, after)
					}
					return err
				})
			}
			if err != nil {
				t.Fatalf("%s (%d): %v", tc.name, value, err)
			}
			if got.current != c.Area() || got.area != c.Area() {
				t.Errorf("%s (%d): handler current in %v, component area %v, want %v", tc.name, value, got.current, got.area, c.Area())
			}
			if now := stateOf(c.Area()).used; got.allocErr != nil || now != used+32 {
				t.Errorf("%s (%d): allocation in the handler: err %v, area holds %d → %d bytes",
					tc.name, value, got.allocErr, used, now)
			}
			if entered != tc.enters {
				t.Errorf("%s (%d): entered %d scopes, want %d", tc.name, value, entered, tc.enters)
			}
			n, last := app.Errors()
			switch {
			case value > 0 && n != errsBefore:
				t.Errorf("%s: handler error: %v", tc.name, last)
			case value < 0 && (n != errsBefore+1 || !strings.Contains(last.Error(), "handler panic")):
				t.Errorf("%s: panic reported %d times (last %v), want once", tc.name, n-errsBefore, last)
			}
		}
	}
	if w := c.life.Load(); w&pendingMask != 0 {
		t.Errorf("C left with %d pending", w&pendingMask)
	}
}

// TestSyncCallConcurrentSenders: senders racing on one synchronous port each
// run their own message on their own goroutine — nothing is buffered, so
// nobody can be handed somebody else's. handled[i] is plain memory only
// sender i may touch: a handler running message i elsewhere is a data race
// under -race, and a count behind the sender's own when Send returns is a
// failure without it.
func TestSyncCallConcurrentSenders(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const senders, each = 8, 2000
	app := newTestApp(t, AppConfig{MsgPoolCapacity: senders})
	var handled [senders]struct {
		n int
		_ [56]byte
	}
	var in *InPort
	var out *OutPort
	_, err := app.NewImmortalComponent("Top", func(c *Component) error {
		smm := c.SMM()
		var err error
		if out, err = AddOutPort(c, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"Sink.in"}}); err != nil {
			return err
		}
		return c.DefineChild(ChildDef{
			Name: "Sink", MemorySize: 1 << 12, Reusable: true,
			Setup: func(sink *Component) error {
				var err error
				in, err = AddInPort(sink, smm, InPortConfig{
					Name: "in", Type: intType, Threading: ThreadingSynchronous,
					Handler: HandlerFunc(func(_ *Proc, m Message) error {
						handled[m.(*intMsg).value].n++
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
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 1; n <= each; n++ {
				m, err := out.GetMessage()
				if err != nil {
					t.Error(err)
					return
				}
				m.(*intMsg).value = int64(i)
				if err := out.Send(m, sched.NormPriority); err != nil {
					t.Error(err)
					return
				}
				if handled[i].n != n {
					t.Errorf("sender %d: %d of its messages handled when its send %d returned", i, handled[i].n, n)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	received, processed, dropped := portStats(in)
	if want := int64(senders * each); received != want || processed != want || out.Sent() != want || dropped != 0 {
		t.Errorf("received %d, processed %d, sent %d, dropped %d; want %d, %d, %d, 0",
			received, processed, out.Sent(), dropped, want, want, want)
	}
	if in.depthMax.Load() != 0 || in.capacity != 0 {
		t.Errorf("a synchronous port buffered: queue max %d, capacity %d", in.depthMax.Load(), in.capacity)
	}
	if n, err := app.Errors(); n != 0 {
		t.Errorf("%d handler errors, last: %v", n, err)
	}
}

// TestInPortStatsByPortKind pins what each kind of In port counts. A
// synchronous port counts a call once, when its handler returns, and reports
// that count as received and processed alike, in Stats and in the
// port_received gauge; a buffered port counts the enqueue and the processing
// apart, as it always has.
func TestInPortStatsByPortKind(t *testing.T) {
	const sends = 5
	for _, threading := range []Threading{ThreadingSynchronous, ThreadingShared, ThreadingDedicated} {
		t.Run(threading.String(), func(t *testing.T) {
			app := newTestApp(t, AppConfig{})
			name := "Stats" + threading.String()
			handled := make(chan int64, sends)
			var in *InPort
			var out *OutPort
			top, err := app.NewImmortalComponent("Top", func(c *Component) error {
				smm := c.SMM()
				var err error
				if out, err = AddOutPort(c, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{name + ".in"}}); err != nil {
					return err
				}
				return c.DefineChild(ChildDef{
					Name: name, MemorySize: 1 << 12,
					Setup: func(s *Component) error {
						var err error
						in, err = AddInPort(s, smm, InPortConfig{
							Name: "in", Type: intType, Threading: threading,
							Handler: HandlerFunc(func(_ *Proc, m Message) error {
								handled <- m.(*intMsg).value
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
			if err := app.Start(); err != nil {
				t.Fatal(err)
			}
			h, err := top.SMM().Connect(name)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Disconnect()
			for i := 0; i < sends; i++ {
				m, err := out.GetMessage()
				if err == nil {
					err = out.Send(m, sched.NormPriority)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			// Every delivery is counted before it gives its reservation back.
			if !h.AwaitIdle(time.Now().Add(5 * time.Second)) {
				t.Fatal("deliveries still pending after 5 s")
			}
			if len(handled) != sends {
				t.Fatalf("%d of %d messages handled", len(handled), sends)
			}
			received, processed, dropped := portStats(in)
			if received != sends || processed != sends || dropped != 0 || out.Sent() != sends {
				t.Errorf("received %d, processed %d, dropped %d, sent %d; want %d, %d, 0, %d",
					received, processed, dropped, out.Sent(), sends, sends, sends)
			}
			gauge := int64(-1)
			for _, g := range telemetry.Default.Snapshot(telemetry.SnapshotOptions{}).Gauges {
				if g.Name == "port_received" && g.Label == in.Name() {
					gauge = g.Value
				}
			}
			if gauge != sends {
				t.Errorf("port_received gauge %d, want %d", gauge, sends)
			}
		})
	}
}

// TestSyncCallNested bounces one message between two sibling components'
// synchronous ports, each hop a call made from inside the previous hop's
// handler on the same scope stack. Coming back to a scope already on the
// stack is an executeInArea, not a second entry: A ▸ B ▸ A ▸ … enters A and B
// once each, and unwinds to where it started with nothing left pending on
// either. Each component's first two nested entries run on its two call
// frames; from the third on, the hop falls back to App.calls.
func TestSyncCallNested(t *testing.T) {
	const hops = 40
	app := newTestApp(t, AppConfig{MsgPoolCapacity: hops + 1})
	var deepest int
	var comps [2]*Component
	var frames [hops + 1]int // by hop: the frame its handler ran on
	bounce := func(self int, next string) func(*Component) error {
		return func(c *Component) error {
			comps[self] = c
			smm := c.Parent().SMM()
			out, err := AddOutPort(c, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{next + ".in"}})
			if err != nil {
				return err
			}
			_, err = AddInPort(c, smm, InPortConfig{
				Name: "in", Type: intType, Threading: ThreadingSynchronous,
				Handler: HandlerFunc(func(p *Proc, m Message) error {
					left := m.(*intMsg).value
					frames[left] = frameOf(p)
					if p.Context().Current() != p.Component().Area() {
						t.Errorf("hop %d: current in %v, want %v", left, p.Context().Current(), p.Component().Area())
					}
					if d := p.Context().Depth(); d > deepest {
						deepest = d
					}
					if left == 0 {
						return nil
					}
					before := stackTop(p.Context())
					fwd, err := out.GetMessage()
					if err != nil {
						return err
					}
					fwd.(*intMsg).value = left - 1
					err = out.SendFrom(p, fwd, p.Priority())
					if after := stackTop(p.Context()); before != after {
						t.Errorf("hop %d: scope stack %v became %v", left, before, after)
					}
					return err
				}),
			})
			return err
		}
	}
	var inject *OutPort
	_, err := app.NewImmortalComponent("Top", func(c *Component) error {
		var err error
		if inject, err = AddOutPort(c, c.SMM(), OutPortConfig{Name: "inject", Type: intType, Dests: []string{"A.in"}}); err != nil {
			return err
		}
		if err := c.DefineChild(ChildDef{Name: "A", MemorySize: 1 << 14, Setup: bounce(0, "B")}); err != nil {
			return err
		}
		return c.DefineChild(ChildDef{Name: "B", MemorySize: 1 << 14, Setup: bounce(1, "A")})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	m, err := inject.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	m.(*intMsg).value = hops
	enters := telemetry.NewCounter("scope_enter_total")
	before := enters.Value()
	if err := inject.Send(m, sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	if n, err := app.Errors(); n != 0 {
		t.Fatalf("%d handler errors, last: %v", n, err)
	}
	if d := enters.Value() - before; d != 2 {
		t.Errorf("%d hops entered %d scopes, want 2 (A and B, once each)", hops, d)
	}
	// immortal ▸ A, then immortal again ▸ B for the first crossing, then one
	// slot per hop back into a scope the stack already holds.
	if want := 3 + hops; deepest != want {
		t.Errorf("deepest scope stack %d, want %d: the hops did not nest on one stack", deepest, want)
	}
	// The first hop into A instantiates it (a slow-path reservation, no
	// frame), so do the first into B; later hops alternate A and B from the top.
	for left := hops; left >= 0; left-- {
		entry := (hops - left) / 2 // how many times this component was entered before
		want := entry - 1
		if entry == 0 || want > 1 {
			want = -1
		}
		if frames[left] != want {
			t.Errorf("hop %d (entry %d into %s) ran on frame %d, want %d",
				left, entry+1, comps[(hops-left)%2].Name(), frames[left], want)
		}
	}
	for _, c := range comps {
		if !c.Disposed() {
			t.Errorf("%s (transient) still live after the chain unwound: life %#x", c.Name(), c.life.Load())
		}
	}
	if _, inFlight := msgPoolStats(inject.smm, "Int"); inFlight != 0 {
		t.Errorf("%d messages still out of the pool", inFlight)
	}
}

// TestSyncCallStopRace stops the application under senders calling a
// synchronous port of a per-message (Reusable) child: every send either ran
// its handler or failed with ErrStopped, and once the senders are gone no
// life word holds a pending message.
func TestSyncCallStopRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for round := 0; round < 20; round++ {
		app, err := NewApp(AppConfig{Name: "stoprace"})
		if err != nil {
			t.Fatal(err)
		}
		var sink *Component
		var out *OutPort
		var senders sync.WaitGroup // a handler may still be running when Stop returns
		top, err := app.NewImmortalComponent("Top", func(c *Component) error {
			smm := c.SMM()
			var err error
			if out, err = AddOutPort(c, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"Sink.in"}}); err != nil {
				return err
			}
			return c.DefineChild(ChildDef{
				Name: "Sink", MemorySize: 1 << 12, Reusable: true,
				Setup: func(s *Component) error {
					sink = s
					_, err := AddInPort(s, smm, InPortConfig{
						Name: "in", Type: intType, Threading: ThreadingSynchronous,
						Handler: HandlerFunc(func(*Proc, Message) error { return nil }),
					})
					return err
				},
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Start(); err != nil {
			t.Fatal(err)
		}
		started := make(chan struct{}, 4)
		for i := 0; i < 4; i++ {
			senders.Add(1)
			go func() {
				defer senders.Done()
				for n := 0; ; n++ {
					if n == 50 {
						started <- struct{}{}
					}
					m, err := out.GetMessage()
					if err != nil {
						t.Error(err)
						return
					}
					if err := out.Send(m, sched.NormPriority); err != nil {
						if !errors.Is(err, ErrStopped) {
							t.Errorf("send racing Stop: %v, want ErrStopped", err)
						}
						if n < 50 {
							started <- struct{}{}
						}
						return
					}
				}
			}()
		}
		for i := 0; i < 4; i++ {
			<-started
		}
		app.Stop()
		senders.Wait()
		for _, c := range []*Component{top, sink} {
			if w := c.life.Load(); w&pendingMask != 0 {
				t.Fatalf("round %d: %s left with %d pending (life %#x)", round, c.Name(), w&pendingMask, w)
			}
		}
		if w := sink.life.Load(); w&lifeDisposed == 0 {
			t.Fatalf("round %d: Sink not disposed after Stop: life %#x", round, w)
		}
	}
}
