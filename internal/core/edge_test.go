package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/memory"
	"repro/internal/sched"
)

func TestDuplicatePortRegistrationRejected(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	c, err := app.NewImmortalComponent("C", nil)
	if err != nil {
		t.Fatal(err)
	}
	smm := c.SMM()
	h := HandlerFunc(func(*Proc, Message) error { return nil })

	first, err := AddInPort(c, smm, InPortConfig{Name: "p", Type: intType, Handler: h})
	if err != nil {
		t.Fatal(err)
	}
	// Re-registering the same port name with the SAME type rebinds (the
	// transient-child path) rather than erroring, and hands back the port
	// the first registration made, buffer and overflow policy included...
	if again, err := AddInPort(c, smm, InPortConfig{Name: "p", Type: intType, Handler: h, Overflow: OverflowBlock}); err != nil {
		t.Errorf("same-type rebind rejected: %v", err)
	} else if again != first || again.overflow != OverflowReject {
		t.Errorf("rebind returned a new port (%p, was %p) or changed its policy to %v", again, first, again.overflow)
	}
	// ...but a different type is a contract violation.
	if _, err := AddInPort(c, smm, InPortConfig{Name: "p", Type: stringType, Handler: h}); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("type change err = %v", err)
	}

	op, err := AddOutPort(c, smm, OutPortConfig{Name: "q", Type: intType})
	if err != nil {
		t.Fatal(err)
	}
	if op.Name() != "C.q" || op.Type().Name != "Int" {
		t.Errorf("out-port accessors: %q %q", op.Name(), op.Type().Name)
	}
	if _, err := AddOutPort(c, smm, OutPortConfig{Name: "q", Type: stringType}); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("out type change err = %v", err)
	}
	// Same-type out rebind updates destinations.
	p, err := AddOutPort(c, smm, OutPortConfig{Name: "q", Type: intType, Dests: []string{"C.p"}})
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Dests(); len(d) != 1 || d[0] != "C.p" {
		t.Errorf("dests = %v", d)
	}
}

func TestAmbiguousShortNameLookups(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	parent, err := app.NewImmortalComponent("P", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddOutPort(c, smm, OutPortConfig{Name: "data", Type: intType}); err != nil {
			return err
		}
		return c.DefineChild(ChildDef{
			Name: "Kid", MemorySize: 1 << 13, Persistent: true,
			Setup: func(k *Component) error {
				// Same short name "data" as the parent's port, same SMM.
				_, err := AddOutPort(k, smm, OutPortConfig{Name: "data", Type: intType})
				return err
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := parent.SMM().Connect("Kid")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Disconnect()

	if _, err := parent.SMM().GetOutPort("data"); !errors.Is(err, ErrUnknownPort) {
		t.Errorf("ambiguous short lookup err = %v", err)
	}
	if _, err := parent.SMM().GetOutPort("P.data"); err != nil {
		t.Errorf("qualified lookup: %v", err)
	}
	if _, err := parent.SMM().GetOutPort("Kid.data"); err != nil {
		t.Errorf("qualified child lookup: %v", err)
	}
}

func TestSMMAreaAndOwnerAccessors(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	c, err := app.NewImmortalComponent("C", nil)
	if err != nil {
		t.Fatal(err)
	}
	smm := c.SMM()
	if smm.Owner() != c {
		t.Error("owner accessor wrong")
	}
	if smm.Area() != app.Model().Immortal() {
		t.Error("area accessor wrong")
	}
	if smm.Mechanism() != MechanismSharedObject {
		t.Errorf("default mechanism = %v", smm.Mechanism())
	}
}

func TestPortRegistrationExhaustsArea(t *testing.T) {
	// A child whose area is too small for its port bookkeeping fails at
	// Setup with ErrOutOfMemory.
	app := newTestApp(t, AppConfig{})
	parent, err := app.NewImmortalComponent("P", func(c *Component) error {
		return c.DefineChild(ChildDef{
			// Just enough for the component header, nothing else.
			Name: "Tiny", MemorySize: componentHeaderBytes + 8,
			Setup: func(k *Component) error {
				// The child's own SMM charges to the child's area.
				_, err := AddInPort(k, k.SMM(), InPortConfig{
					Name: "in", Type: intType,
					Handler: HandlerFunc(func(*Proc, Message) error { return nil }),
				})
				return err
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.SMM().Connect("Tiny"); !errors.Is(err, memory.ErrOutOfMemory) {
		t.Errorf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestHandoffFanOut(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	var got []int64
	mk := func(mul int64) Handler {
		return HandlerFunc(func(p *Proc, m Message) error {
			// The handler's memory context is current in the component's
			// area.
			if p.Context().Current() != p.Component().Area() {
				t.Error("handler context not in component area")
			}
			got = append(got, m.(*intMsg).value*mul)
			return nil
		})
	}
	comp, err := app.NewImmortalComponent("C", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddInPort(c, smm, InPortConfig{Name: "a", Type: intType, Handler: mk(1)}); err != nil {
			return err
		}
		if _, err := AddInPort(c, smm, InPortConfig{Name: "b", Type: intType, Handler: mk(100)}); err != nil {
			return err
		}
		_, err := AddOutPort(c, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"C.a", "C.b"}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	smm := comp.SMM()
	smm.SetMechanism(MechanismHandoff)
	out, _ := smm.GetOutPort("out")

	err = comp.Exec(func(ctx *memory.Context) error {
		msg, err := out.GetMessage()
		if err != nil {
			return err
		}
		msg.(*intMsg).value = 7
		return out.SendFrom(NewProc(comp, smm, ctx, 5), msg, 5)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Handoff is synchronous: both handlers ran inline, in dest order.
	if len(got) != 2 || got[0] != 7 || got[1] != 700 {
		t.Errorf("got = %v, want [7 700]", got)
	}
	// The message went back to the pool.
	if _, inFlight := msgPoolStats(smm, "Int"); inFlight != 0 {
		t.Errorf("in flight = %d", inFlight)
	}
}

func TestSerializationFanOut(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	got := make(chan int64, 2)
	h := HandlerFunc(func(p *Proc, m Message) error {
		got <- m.(*intMsg).value
		return nil
	})
	comp, err := app.NewImmortalComponent("C", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddInPort(c, smm, InPortConfig{Name: "a", Type: intType, Handler: h}); err != nil {
			return err
		}
		if _, err := AddInPort(c, smm, InPortConfig{Name: "b", Type: intType, Handler: h}); err != nil {
			return err
		}
		_, err := AddOutPort(c, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"C.a", "C.b"}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	smm := comp.SMM()
	smm.SetMechanism(MechanismSerialization)
	out, _ := smm.GetOutPort("out")
	msg, _ := out.GetMessage()
	msg.(*intMsg).value = 55
	if err := out.Send(msg, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if v := waitRecv(t, got); v != 55 {
			t.Errorf("copy %d = %d", i, v)
		}
	}
	// Under serialization the original returns at send time; copies are
	// independent, so the pool balances immediately.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, inFlight := msgPoolStats(smm, "Int")
		if inFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in flight = %d", inFlight)
		}
	}
}

func TestAppScopePoolLookup(t *testing.T) {
	app := newTestApp(t, AppConfig{
		ScopePools: []ScopePoolSpec{{Level: 2, AreaSize: 1 << 12, Count: 1}},
	})
	if app.ScopePool(2) == nil {
		t.Error("configured pool missing")
	}
	if app.ScopePool(1) != nil {
		t.Error("unconfigured pool present")
	}
}

func TestAppConfigValidation(t *testing.T) {
	if _, err := NewApp(AppConfig{ScopePools: []ScopePoolSpec{{Level: 0, AreaSize: 10, Count: 1}}}); err == nil {
		t.Error("level-0 pool accepted")
	}
	if _, err := NewApp(AppConfig{ScopePools: []ScopePoolSpec{
		{Level: 1, AreaSize: 10, Count: 1}, {Level: 1, AreaSize: 10, Count: 1},
	}}); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate pool err = %v", err)
	}
}

func TestConnectIdempotentForLiveChild(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	parent, err := app.NewImmortalComponent("P", func(c *Component) error {
		return c.DefineChild(ChildDef{
			Name: "Kid", MemorySize: 1 << 13,
			Setup: func(*Component) error { return nil },
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	smm := parent.SMM()
	h1, err := smm.Connect("Kid")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := smm.Connect("Kid")
	if err != nil {
		t.Fatal(err)
	}
	if h1.Component() != h2.Component() {
		t.Error("second connect created a new instance")
	}
	// Paper-style spelling.
	smm.Disconnect(h1)
	if h1.Component().Disposed() {
		t.Error("disposed while second handle held")
	}
	h2.Disconnect()
	if !h2.Component().Disposed() {
		t.Error("not disposed after last handle")
	}
}

func TestSendAtExtremePriorities(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	got := make(chan sched.Priority, 2)
	comp, err := app.NewImmortalComponent("C", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddInPort(c, smm, InPortConfig{
			Name: "in", Type: intType,
			Handler: HandlerFunc(func(p *Proc, m Message) error {
				got <- p.Priority()
				return nil
			}),
		}); err != nil {
			return err
		}
		_, err := AddOutPort(c, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"C.in"}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := comp.SMM().GetOutPort("out")
	for _, prio := range []sched.Priority{-100, 1000} {
		m, _ := out.GetMessage()
		if err := out.Send(m, prio); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[sched.Priority]bool{}
	for i := 0; i < 2; i++ {
		select {
		case p := <-got:
			seen[p] = true
		case <-time.After(2 * time.Second):
			t.Fatal("dispatch stalled")
		}
	}
	// Priorities clamp into the RTSJ band.
	if !seen[sched.MinPriority] || !seen[sched.MaxPriority] {
		t.Errorf("seen = %v, want clamped min and max", seen)
	}
}

// TestBufferedDeliveryRunsAtMessagePriority pins that a buffered message is
// handled at its own priority, not at the priority of the pool task whose
// worker popped it: with the port's only worker parked in a handler, a
// priority-25 message waits in the buffer, and a dispatch run for a
// priority-5 task — as a worker holding one would — hands it over at 25.
func TestBufferedDeliveryRunsAtMessagePriority(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	got := make(chan sched.Priority, 2)
	block := make(chan struct{})
	comp, err := app.NewImmortalComponent("C", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddInPort(c, smm, InPortConfig{
			Name: "in", Type: intType,
			Threading: ThreadingDedicated, MinThreads: 1, MaxThreads: 1,
			Handler: HandlerFunc(func(p *Proc, m Message) error {
				got <- p.Priority()
				if m.(*intMsg).value == 1 {
					<-block
				}
				return nil
			}),
		}); err != nil {
			return err
		}
		_, err := AddOutPort(c, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"C.in"}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer close(block)
	out, _ := comp.SMM().GetOutPort("out")
	send := func(v int64, prio sched.Priority) {
		t.Helper()
		m, err := out.GetMessage()
		if err != nil {
			t.Fatal(err)
		}
		m.(*intMsg).value = v
		if err := out.Send(m, prio); err != nil {
			t.Fatal(err)
		}
	}
	send(1, 10)
	if p := <-got; p != 10 {
		t.Fatalf("parking message handled at %d, want 10", p)
	}
	send(2, 25)
	comp.SMM().dispatch(comp.SMM().inPort("C.in"), 5)
	if p := <-got; p != 25 {
		t.Errorf("priority-25 message handled at %d by a priority-5 task's dispatch", p)
	}
}
