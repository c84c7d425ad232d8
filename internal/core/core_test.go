package core

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
)

// intMsg is the test message type, the analogue of the paper's MyInteger.
type intMsg struct {
	value int64
}

func (m *intMsg) Reset() { m.value = 0 }

func (m *intMsg) MarshalBinary() ([]byte, error) {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(m.value))
	return b, nil
}

func (m *intMsg) UnmarshalBinary(b []byte) error {
	if len(b) != 8 {
		return errors.New("intMsg: bad length")
	}
	m.value = int64(binary.BigEndian.Uint64(b))
	return nil
}

var intType = MessageType{Name: "Int", Size: 16, New: func() Message { return &intMsg{} }}

// stringMsg is a second type for mismatch tests.
type stringMsg struct{ s string }

func (m *stringMsg) Reset() { m.s = "" }

var stringType = MessageType{Name: "String", Size: 32, New: func() Message { return &stringMsg{} }}

// msgPoolStats reports the capacity and in-flight count of the SMM's message
// pool for typeName, zeros before one exists.
func msgPoolStats(s *SMM, typeName string) (capacity, inFlight int) {
	s.mu.Lock()
	p := s.msgPools[typeName]
	s.mu.Unlock()
	if p == nil {
		return 0, 0
	}
	return p.stats()
}

// stats reports the pool's (capacity, in-flight).
func (p *msgPool) stats() (capacity, inFlight int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total, p.total - len(p.free)
}

func newTestApp(t *testing.T, cfg AppConfig) *App {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "test"
	}
	app, err := NewApp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Stop)
	return app
}

func waitRecv(t *testing.T, ch <-chan int64) int64 {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for message")
		return 0
	}
}

func TestImmortalComponentLoopback(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	got := make(chan int64, 1)

	comp, err := app.NewImmortalComponent("Echo", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddInPort(c, smm, InPortConfig{
			Name: "in", Type: intType,
			Handler: HandlerFunc(func(p *Proc, m Message) error {
				got <- m.(*intMsg).value
				return nil
			}),
		}); err != nil {
			return err
		}
		_, err := AddOutPort(c, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"Echo.in"}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}

	out, err := comp.SMM().GetOutPort("out")
	if err != nil {
		t.Fatal(err)
	}
	m, err := out.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	m.(*intMsg).value = 42
	if err := out.Send(m, sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	if v := waitRecv(t, got); v != 42 {
		t.Errorf("received %d, want 42", v)
	}
	if out.Sent() != 1 {
		t.Errorf("sent = %d, want 1", out.Sent())
	}
}

func TestComponentAccessors(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	c, err := app.NewImmortalComponent("Top", nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "Top" || c.Path() != "Top" || c.Level() != 0 || c.Parent() != nil {
		t.Errorf("accessors wrong: %q %q %d", c.Name(), c.Path(), c.Level())
	}
	if c.App() != app || c.Area() != app.Model().Immortal() {
		t.Error("app/area accessors wrong")
	}
	if app.Component("Top") != c || app.Component("Nope") != nil {
		t.Error("App.Component lookup wrong")
	}
	if app.Name() != "test" {
		t.Errorf("app name = %q", app.Name())
	}
}

func TestDuplicateAndBadNames(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	if _, err := app.NewImmortalComponent("A", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := app.NewImmortalComponent("A", nil); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("dup component err = %v", err)
	}
	if _, err := app.NewImmortalComponent("A.B", nil); !errors.Is(err, ErrBadName) {
		t.Errorf("dotted name err = %v", err)
	}
	if _, err := app.NewImmortalComponent("", nil); !errors.Is(err, ErrBadName) {
		t.Errorf("empty name err = %v", err)
	}
	c := app.Component("A")
	if err := c.DefineChild(ChildDef{Name: "kid", MemorySize: 1 << 12, Setup: func(*Component) error { return nil }}); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineChild(ChildDef{Name: "kid", MemorySize: 1 << 12, Setup: func(*Component) error { return nil }}); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("dup child err = %v", err)
	}
	if err := c.DefineChild(ChildDef{Name: "bad", MemorySize: 0, Setup: func(*Component) error { return nil }}); err == nil {
		t.Error("zero memory child accepted")
	}
	if err := c.DefineChild(ChildDef{Name: "bad2", MemorySize: 10}); err == nil {
		t.Error("nil setup accepted")
	}
}

// buildClientServer constructs the paper's Fig. 6 example: an immortal
// component (IMC) with two scoped children, Client and Server, wired
// P1→P2, P3→P4, P5→P6. done receives the reply value observed at P6.
func buildClientServer(t *testing.T, app *App, persistent bool, usePool bool) (*Component, chan int64) {
	t.Helper()
	done := make(chan int64, 16)

	imc, err := app.NewImmortalComponent("IMC", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddOutPort(c, smm, OutPortConfig{Name: "P1", Type: intType, Dests: []string{"Client.P2"}}); err != nil {
			return err
		}

		clientDef := ChildDef{
			Name: "Client", MemorySize: 1 << 14, Persistent: persistent, UsePool: usePool,
			Setup: func(cl *Component) error {
				if _, err := AddInPort(cl, smm, InPortConfig{
					Name: "P2", Type: intType, BufferSize: 10,
					Handler: HandlerFunc(func(p *Proc, m Message) error {
						p3, err := p.SMM().GetOutPort("Client.P3")
						if err != nil {
							return err
						}
						req, err := p3.GetMessage()
						if err != nil {
							return err
						}
						req.(*intMsg).value = m.(*intMsg).value + 1
						return p3.Send(req, 3)
					}),
				}); err != nil {
					return err
				}
				if _, err := AddOutPort(cl, smm, OutPortConfig{Name: "P3", Type: intType, Dests: []string{"Server.P4"}}); err != nil {
					return err
				}
				_, err := AddInPort(cl, smm, InPortConfig{
					Name: "P6", Type: intType, BufferSize: 20,
					Handler: HandlerFunc(func(p *Proc, m Message) error {
						done <- m.(*intMsg).value
						return nil
					}),
				})
				return err
			},
		}
		serverDef := ChildDef{
			Name: "Server", MemorySize: 1 << 14, Persistent: persistent, UsePool: usePool,
			Setup: func(sv *Component) error {
				if _, err := AddInPort(sv, smm, InPortConfig{
					Name: "P4", Type: intType, BufferSize: 20,
					Handler: HandlerFunc(func(p *Proc, m Message) error {
						p5, err := p.SMM().GetOutPort("Server.P5")
						if err != nil {
							return err
						}
						rep, err := p5.GetMessage()
						if err != nil {
							return err
						}
						rep.(*intMsg).value = m.(*intMsg).value * 10
						return p5.Send(rep, 3)
					}),
				}); err != nil {
					return err
				}
				_, err := AddOutPort(sv, smm, OutPortConfig{Name: "P5", Type: intType, Dests: []string{"Client.P6"}})
				return err
			},
		}
		if err := c.DefineChild(clientDef); err != nil {
			return err
		}
		return c.DefineChild(serverDef)
	})
	if err != nil {
		t.Fatal(err)
	}
	return imc, done
}

func trigger(t *testing.T, imc *Component, v int64) error {
	t.Helper()
	p1, err := imc.SMM().GetOutPort("IMC.P1")
	if err != nil {
		t.Fatal(err)
	}
	m, err := p1.GetMessage()
	if err != nil {
		return err
	}
	m.(*intMsg).value = v
	return p1.Send(m, 2)
}

func TestClientServerRoundTrip(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	imc, done := buildClientServer(t, app, true /* persistent */, false)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}

	if err := trigger(t, imc, 5); err != nil {
		t.Fatal(err)
	}
	// Reply = (5+1)*10.
	if v := waitRecv(t, done); v != 60 {
		t.Errorf("reply = %d, want 60", v)
	}
	if n, err := app.Errors(); n != 0 {
		t.Errorf("handler errors: %d (%v)", n, err)
	}

	// Children are persistent: both live after the round trip.
	smm := imc.SMM()
	if smm.Child("Client") == nil || smm.Child("Server") == nil {
		t.Error("persistent children disposed after round trip")
	}

	// Pools balance: every message returned.
	if err := app.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, inFlight := msgPoolStats(smm, "Int"); inFlight != 0 {
		t.Fatalf("pool not balanced: %d in flight", inFlight)
	}
}

func TestTransientChildrenReclaimedAtQuiescence(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	imc, done := buildClientServer(t, app, false /* transient */, false)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}

	if err := trigger(t, imc, 1); err != nil {
		t.Fatal(err)
	}
	if v := waitRecv(t, done); v != 20 {
		t.Errorf("reply = %d, want 20", v)
	}

	// Both children should quiesce and be reclaimed.
	smm := imc.SMM()
	if err := app.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if smm.Child("Client") != nil || smm.Child("Server") != nil {
		t.Fatal("transient children not reclaimed")
	}

	// A second trigger re-instantiates them and still works.
	if err := trigger(t, imc, 2); err != nil {
		t.Fatal(err)
	}
	if v := waitRecv(t, done); v != 30 {
		t.Errorf("second reply = %d, want 30", v)
	}
	if n, err := app.Errors(); n != 0 {
		t.Errorf("handler errors: %d (%v)", n, err)
	}
}

func TestConnectHandleKeepsChildAlive(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	imc, done := buildClientServer(t, app, false, false)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	smm := imc.SMM()

	h, err := smm.Connect("Server")
	if err != nil {
		t.Fatal(err)
	}
	server := h.Component()
	if server.Disposed() {
		t.Fatal("connected child disposed")
	}
	if server.Level() != 1 || server.Parent() != imc || server.Path() != "IMC/Server" {
		t.Errorf("child identity: level %d path %q", server.Level(), server.Path())
	}

	if err := trigger(t, imc, 3); err != nil {
		t.Fatal(err)
	}
	waitRecv(t, done)

	// Server is held by the handle; it must be the same instance.
	if got := smm.Child("Server"); got != server {
		t.Error("held server instance was replaced")
	}

	h.Disconnect()
	h.Disconnect() // idempotent
	if err := app.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if smm.Child("Server") != nil {
		t.Fatal("server not reclaimed after disconnect")
	}
	if !server.Disposed() {
		t.Error("server instance not marked disposed")
	}

	if _, err := smm.Connect("NoSuch"); !errors.Is(err, ErrUnknownChild) {
		t.Errorf("connect unknown err = %v", err)
	}
}

func TestScopeReclamationBumpsGeneration(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	imc, done := buildClientServer(t, app, false, false)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	smm := imc.SMM()

	h, err := smm.Connect("Server")
	if err != nil {
		t.Fatal(err)
	}
	area := h.Component().Area()
	before := stateOf(area)
	if before.entrants+before.wedges == 0 {
		t.Fatal("connected child's area inactive")
	}
	h.Disconnect()
	after := stateOf(area)
	if after.entrants+after.wedges != 0 {
		t.Fatal("area active after disconnect")
	}
	if after.gen != before.gen+1 {
		t.Errorf("generation = %d, want %d", after.gen, before.gen+1)
	}
	_ = done
}

func TestScopePoolBackedChildren(t *testing.T) {
	app := newTestApp(t, AppConfig{
		ScopePools: []ScopePoolSpec{{Level: 1, AreaSize: 1 << 14, Count: 3}},
	})
	imc, done := buildClientServer(t, app, false, true /* usePool */)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}

	for i := int64(0); i < 5; i++ {
		if err := trigger(t, imc, i); err != nil {
			t.Fatal(err)
		}
		if v := waitRecv(t, done); v != (i+1)*10 {
			t.Errorf("reply %d = %d, want %d", i, v, (i+1)*10)
		}
	}
	// Areas must be recycled through the pool, not freshly created: 3
	// pre-created areas serve everything.
	created, reused, _ := app.ScopePool(1).Stats()
	if created != 3 {
		t.Errorf("pool created = %d, want 3", created)
	}
	if reused < 2 {
		t.Errorf("pool reused = %d, want >= 2", reused)
	}
	if n, err := app.Errors(); n != 0 {
		t.Errorf("handler errors: %d (%v)", n, err)
	}
}

func TestChildWithoutConfiguredPoolFails(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	imc, err := app.NewImmortalComponent("P", func(c *Component) error {
		return c.DefineChild(ChildDef{Name: "kid", UsePool: true, Setup: func(*Component) error { return nil }})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := imc.SMM().Connect("kid"); err == nil {
		t.Error("connect without configured pool succeeded")
	}
}

func TestSendErrors(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	comp, err := app.NewImmortalComponent("C", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddInPort(c, smm, InPortConfig{
			Name: "strIn", Type: stringType,
			Handler: HandlerFunc(func(*Proc, Message) error { return nil }),
		}); err != nil {
			return err
		}
		if _, err := AddOutPort(c, smm, OutPortConfig{Name: "mismatch", Type: intType, Dests: []string{"C.strIn"}}); err != nil {
			return err
		}
		if _, err := AddOutPort(c, smm, OutPortConfig{Name: "nowhere", Type: intType, Dests: []string{"C.missing"}}); err != nil {
			return err
		}
		_, err := AddOutPort(c, smm, OutPortConfig{Name: "unconnected", Type: intType})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	smm := comp.SMM()

	mm, _ := smm.GetOutPort("mismatch")
	m, err := mm.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := mm.Send(m, 1); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("type mismatch err = %v", err)
	}

	nw, _ := smm.GetOutPort("nowhere")
	m2, err := nw.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Send(m2, 1); !errors.Is(err, ErrUnknownPort) {
		t.Errorf("unknown dest err = %v", err)
	}

	uc, _ := smm.GetOutPort("unconnected")
	m3, err := uc.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := uc.Send(m3, 1); !errors.Is(err, ErrUnknownPort) {
		t.Errorf("no-dest err = %v", err)
	}
}

func TestMessagePoolExhaustion(t *testing.T) {
	app := newTestApp(t, AppConfig{MsgPoolCapacity: 2})
	comp, err := app.NewImmortalComponent("C", func(c *Component) error {
		_, err := AddOutPort(c, c.SMM(), OutPortConfig{Name: "out", Type: intType, Dests: []string{"C.in"}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := comp.SMM().GetOutPort("out")
	m1, err := out.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := out.GetMessage(); err != nil {
		t.Fatal(err)
	}
	if _, err := out.GetMessage(); !errors.Is(err, ErrPoolEmpty) {
		t.Errorf("exhausted pool err = %v, want ErrPoolEmpty", err)
	}
	out.PutBack(m1)
	if _, err := out.GetMessage(); err != nil {
		t.Errorf("get after put-back: %v", err)
	}
}

func TestBufferFull(t *testing.T) {
	app := newTestApp(t, AppConfig{MsgPoolCapacity: 16})
	block := make(chan struct{})
	started := make(chan struct{}, 16)
	comp, err := app.NewImmortalComponent("C", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddInPort(c, smm, InPortConfig{
			Name: "in", Type: intType, BufferSize: 2,
			Threading: ThreadingDedicated, MinThreads: 1, MaxThreads: 1,
			Handler: HandlerFunc(func(*Proc, Message) error {
				started <- struct{}{}
				<-block
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

	send := func() error {
		m, err := out.GetMessage()
		if err != nil {
			return err
		}
		return out.Send(m, 1)
	}
	// First send occupies the single worker; two more fill the buffer.
	if err := send(); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := send(); err != nil {
		t.Fatal(err)
	}
	if err := send(); err != nil {
		t.Fatal(err)
	}
	if err := send(); !errors.Is(err, ErrBufferFull) {
		t.Errorf("overflow err = %v, want ErrBufferFull", err)
	}
	if _, _, dropped := portStats(comp.SMM().inPort("C.in")); dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	close(block)
}

func TestBufferDispatchesByPriority(t *testing.T) {
	app := newTestApp(t, AppConfig{MsgPoolCapacity: 16})
	block := make(chan struct{})
	started := make(chan struct{}, 16)
	var mu sync.Mutex
	var order []int64
	comp, err := app.NewImmortalComponent("C", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddInPort(c, smm, InPortConfig{
			Name: "in", Type: intType, BufferSize: 16,
			Threading: ThreadingDedicated, MinThreads: 1, MaxThreads: 1,
			Handler: HandlerFunc(func(p *Proc, m Message) error {
				v := m.(*intMsg).value
				if v == 0 {
					started <- struct{}{}
					<-block
					return nil
				}
				mu.Lock()
				order = append(order, v)
				mu.Unlock()
				started <- struct{}{}
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
	send := func(v int64, prio sched.Priority) {
		m, err := out.GetMessage()
		if err != nil {
			t.Fatal(err)
		}
		m.(*intMsg).value = v
		if err := out.Send(m, prio); err != nil {
			t.Fatal(err)
		}
	}
	// Occupy the single worker, then queue scrambled priorities.
	send(0, sched.NormPriority)
	<-started
	send(10, 10)
	send(30, 30)
	send(20, 20)
	send(31, 30) // same priority as 30: FIFO after it
	close(block)
	for i := 0; i < 4; i++ {
		<-started
	}
	mu.Lock()
	defer mu.Unlock()
	want := []int64{30, 31, 20, 10}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", order, want)
		}
	}
}

func TestHandlerPanicIsolatedAndReported(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	comp, err := app.NewImmortalComponent("C", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddInPort(c, smm, InPortConfig{
			Name: "in", Type: intType,
			Handler: HandlerFunc(func(*Proc, Message) error { panic("boom") }),
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
	m, _ := out.GetMessage()
	if err := out.Send(m, 1); err != nil {
		t.Fatal(err)
	}
	if err := app.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n, err := app.Errors(); n != 1 || err == nil {
		t.Fatalf("panic not reported: %d errors, last %v", n, err)
	}
	// The message still returned to its pool.
	if _, inFlight := msgPoolStats(comp.SMM(), "Int"); inFlight != 0 {
		t.Errorf("in flight = %d after panic, want 0", inFlight)
	}
}

func TestStopRejectsFurtherWork(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	imc, _ := buildClientServer(t, app, true, false)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	p1, err := imc.SMM().GetOutPort("IMC.P1")
	if err != nil {
		t.Fatal(err)
	}
	m, err := p1.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	app.Stop()
	if got := app.Phase(); got != PhaseTerminated {
		t.Errorf("phase after Stop = %v, want terminated", got)
	}
	if err := p1.Send(m, 1); !errors.Is(err, ErrStopped) {
		t.Errorf("send after stop err = %v, want ErrStopped", err)
	}
	if err := app.Start(); !errors.Is(err, ErrStopped) {
		t.Errorf("start after stop err = %v, want ErrStopped", err)
	}
	if _, err := app.NewImmortalComponent("X", nil); !errors.Is(err, ErrStopped) {
		t.Errorf("new component after stop err = %v, want ErrStopped", err)
	}
	app.Stop() // idempotent
}

func TestSynchronousThreading(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	var handlerDone bool
	comp, err := app.NewImmortalComponent("C", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddInPort(c, smm, InPortConfig{
			Name: "in", Type: intType, Threading: ThreadingSynchronous,
			Handler: HandlerFunc(func(*Proc, Message) error {
				handlerDone = true
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
	m, _ := out.GetMessage()
	if err := out.Send(m, 1); err != nil {
		t.Fatal(err)
	}
	// Synchronous: completed before Send returned, no happens-before issues.
	if !handlerDone {
		t.Error("synchronous handler did not run inline")
	}
}

func TestThreadingString(t *testing.T) {
	if ThreadingShared.String() != "Shared" || ThreadingDedicated.String() != "Dedicated" ||
		ThreadingSynchronous.String() != "Synchronous" || Threading(9).String() == "" {
		t.Error("Threading.String wrong")
	}
}

func TestMechanismString(t *testing.T) {
	if MechanismSharedObject.String() != "shared-object" ||
		MechanismSerialization.String() != "serialization" ||
		MechanismHandoff.String() != "handoff" || Mechanism(9).String() == "" {
		t.Error("Mechanism.String wrong")
	}
}
