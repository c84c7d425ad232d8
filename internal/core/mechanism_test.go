package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/memory"
	"repro/internal/sched"
)

// buildSiblingPair creates P with transient children A (sender) and B
// (receiver). A's handler forwards the value+delta to B; B reports to out.
func buildSiblingPair(t *testing.T, app *App) (*Component, chan int64) {
	t.Helper()
	out := make(chan int64, 64)
	p, err := app.NewImmortalComponent("P", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddOutPort(c, smm, OutPortConfig{Name: "inject", Type: intType, Dests: []string{"A.in"}}); err != nil {
			return err
		}
		if err := c.DefineChild(ChildDef{
			Name: "A", MemorySize: 1 << 14,
			Setup: func(a *Component) error {
				if _, err := AddInPort(a, smm, InPortConfig{
					Name: "in", Type: intType,
					Handler: HandlerFunc(func(pr *Proc, m Message) error {
						fwd, err := pr.SMM().GetOutPort("A.out")
						if err != nil {
							return err
						}
						msg, err := fwd.GetMessage()
						if err != nil {
							return err
						}
						msg.(*intMsg).value = m.(*intMsg).value + 100
						return fwd.SendFrom(pr, msg, pr.Priority())
					}),
				}); err != nil {
					return err
				}
				_, err := AddOutPort(a, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"B.in"}})
				return err
			},
		}); err != nil {
			return err
		}
		return c.DefineChild(ChildDef{
			Name: "B", MemorySize: 1 << 14,
			Setup: func(b *Component) error {
				_, err := AddInPort(b, smm, InPortConfig{
					Name: "in", Type: intType,
					Handler: HandlerFunc(func(pr *Proc, m Message) error {
						out <- m.(*intMsg).value
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
	return p, out
}

func inject(t *testing.T, p *Component, v int64) error {
	t.Helper()
	op, err := p.SMM().GetOutPort("P.inject")
	if err != nil {
		t.Fatal(err)
	}
	m, err := op.GetMessage()
	if err != nil {
		return err
	}
	m.(*intMsg).value = v
	return op.Send(m, sched.NormPriority)
}

func TestMechanismSharedObjectSiblings(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	p, out := buildSiblingPair(t, app)
	if err := inject(t, p, 7); err != nil {
		t.Fatal(err)
	}
	if v := waitRecv(t, out); v != 107 {
		t.Errorf("got %d, want 107", v)
	}
	if n, err := app.Errors(); n != 0 {
		t.Fatalf("handler errors: %d (%v)", n, err)
	}
}

func TestMechanismSerialization(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	p, out := buildSiblingPair(t, app)
	p.SMM().SetMechanism(MechanismSerialization)
	if got := p.SMM().Mechanism(); got != MechanismSerialization {
		t.Fatalf("mechanism = %v", got)
	}
	if err := inject(t, p, 9); err != nil {
		t.Fatal(err)
	}
	if v := waitRecv(t, out); v != 109 {
		t.Errorf("got %d, want 109", v)
	}
	// Under serialization the original returns to the pool at send time:
	// in-flight drains to zero.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, inFlight := msgPoolStats(p.SMM(), "Int")
		if inFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight = %d, want 0", inFlight)
		}
		time.Sleep(time.Millisecond)
	}
	if n, err := app.Errors(); n != 0 {
		t.Fatalf("handler errors: %d (%v)", n, err)
	}
}

func TestMechanismSerializationRequiresMarshaler(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	comp, err := app.NewImmortalComponent("C", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddInPort(c, smm, InPortConfig{
			Name: "in", Type: stringType,
			Handler: HandlerFunc(func(*Proc, Message) error { return nil }),
		}); err != nil {
			return err
		}
		_, err := AddOutPort(c, smm, OutPortConfig{Name: "out", Type: stringType, Dests: []string{"C.in"}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	smm := comp.SMM()
	smm.SetMechanism(MechanismSerialization)
	op, _ := smm.GetOutPort("out")
	m, _ := op.GetMessage()
	if err := op.Send(m, 1); !errors.Is(err, ErrNotSerializable) {
		t.Errorf("err = %v, want ErrNotSerializable", err)
	}
}

func TestMechanismHandoff(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	p, out := buildSiblingPair(t, app)
	p.SMM().SetMechanism(MechanismHandoff)

	// Plain Send (no caller context) must be rejected...
	op, _ := p.SMM().GetOutPort("P.inject")
	m, _ := op.GetMessage()
	if err := op.Send(m, 1); !errors.Is(err, ErrNeedsCallerContext) {
		t.Fatalf("context-free handoff err = %v, want ErrNeedsCallerContext", err)
	}

	// ...but SendFrom within the parent's execution context works, and the
	// whole chain (P -> A -> B) runs synchronously on the calling thread.
	err := p.Exec(func(ctx *memory.Context) error {
		msg, err := op.GetMessage()
		if err != nil {
			return err
		}
		msg.(*intMsg).value = 5
		return op.SendFrom(&Proc{comp: p, smm: p.SMM(), ctx: ctx, prio: 3}, msg, 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-out:
		if v != 105 {
			t.Errorf("got %d, want 105", v)
		}
	default:
		t.Fatal("handoff chain did not complete synchronously")
	}
	if n, err := app.Errors(); n != 0 {
		t.Fatalf("handler errors: %d (%v)", n, err)
	}
}

func TestShadowPortGrandchildToGrandparent(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	out := make(chan int64, 8)

	// A (immortal) contains B, which contains C. C talks directly to A via
	// a shadow port: C's out port registers with A's SMM, so the message
	// pool and buffer live only in A's area (Fig. 5 of the paper).
	a, err := app.NewImmortalComponent("A", func(a *Component) error {
		aSMM := a.SMM()
		if _, err := AddInPort(a, aSMM, InPortConfig{
			Name: "fromC", Type: intType,
			Handler: HandlerFunc(func(pr *Proc, m Message) error {
				out <- m.(*intMsg).value
				return nil
			}),
		}); err != nil {
			return err
		}
		if _, err := AddOutPort(a, aSMM, OutPortConfig{Name: "toB", Type: intType, Dests: []string{"B.in"}}); err != nil {
			return err
		}
		return a.DefineChild(ChildDef{
			Name: "B", MemorySize: 1 << 14,
			Setup: func(b *Component) error {
				bSMM := b.SMM()
				if _, err := AddInPort(b, aSMM, InPortConfig{
					Name: "in", Type: intType,
					Handler: HandlerFunc(func(pr *Proc, m Message) error {
						toC, err := bSMM.GetOutPort("B.toC")
						if err != nil {
							return err
						}
						msg, err := toC.GetMessage()
						if err != nil {
							return err
						}
						msg.(*intMsg).value = m.(*intMsg).value * 2
						return toC.Send(msg, pr.Priority())
					}),
				}); err != nil {
					return err
				}
				if _, err := AddOutPort(b, bSMM, OutPortConfig{Name: "toC", Type: intType, Dests: []string{"C.in"}}); err != nil {
					return err
				}
				return b.DefineChild(ChildDef{
					Name: "C", MemorySize: 1 << 13,
					Setup: func(cc *Component) error {
						if _, err := AddInPort(cc, bSMM, InPortConfig{
							Name: "in", Type: intType,
							Handler: HandlerFunc(func(pr *Proc, m Message) error {
								// Shadow port: registered with A's SMM, not B's.
								shadow, err := aSMM.GetOutPort("C.shadowOut")
								if err != nil {
									return err
								}
								msg, err := shadow.GetMessage()
								if err != nil {
									return err
								}
								msg.(*intMsg).value = m.(*intMsg).value + 1
								return shadow.Send(msg, pr.Priority())
							}),
						}); err != nil {
							return err
						}
						_, err := AddOutPort(cc, aSMM, OutPortConfig{
							Name: "shadowOut", Type: intType, Dests: []string{"A.fromC"},
						})
						return err
					},
				})
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	toB, err := a.SMM().GetOutPort("A.toB")
	if err != nil {
		t.Fatal(err)
	}
	m, err := toB.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	m.(*intMsg).value = 10
	if err := toB.Send(m, 5); err != nil {
		t.Fatal(err)
	}
	if v := waitRecv(t, out); v != 21 { // (10*2)+1
		t.Errorf("got %d, want 21", v)
	}
	if n, err := app.Errors(); n != 0 {
		t.Fatalf("handler errors: %d (%v)", n, err)
	}
}

func TestShadowPortSkipsIntermediateAllocation(t *testing.T) {
	// The point of the shadow port: the intermediate component's area holds
	// no pool for the shadow traffic's message type.
	app := newTestApp(t, AppConfig{})
	var bSMM *SMM
	a, err := app.NewImmortalComponent("A", func(a *Component) error {
		aSMM := a.SMM()
		if _, err := AddInPort(a, aSMM, InPortConfig{
			Name: "in", Type: stringType,
			Handler: HandlerFunc(func(*Proc, Message) error { return nil }),
		}); err != nil {
			return err
		}
		return a.DefineChild(ChildDef{
			Name: "B", MemorySize: 1 << 14, Persistent: true,
			Setup: func(b *Component) error {
				bSMM = b.SMM()
				return b.DefineChild(ChildDef{
					Name: "C", MemorySize: 1 << 13, Persistent: true,
					Setup: func(cc *Component) error {
						_, err := AddOutPort(cc, aSMM, OutPortConfig{
							Name: "sh", Type: stringType, Dests: []string{"A.in"},
						})
						return err
					},
				})
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := a.SMM().Connect("B")
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Disconnect()
	hc, err := bSMM.Connect("C")
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Disconnect()

	if capacity, _ := msgPoolStats(a.SMM(), "String"); capacity == 0 {
		t.Error("grandparent SMM has no pool for the shadow type")
	}
	if capacity, _ := msgPoolStats(bSMM, "String"); capacity != 0 {
		t.Error("intermediate SMM allocated a pool for shadow traffic")
	}
}

func TestMediationRequiresAncestor(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	var regErr1, regErr2 error
	x, err := app.NewImmortalComponent("X", func(x *Component) error {
		return x.DefineChild(ChildDef{
			Name: "kid", MemorySize: 1 << 12, Persistent: true,
			Setup: func(kid *Component) error {
				// Y's SMM cannot mediate the scoped child's ports: Y is not
				// an ancestor of kid, and kid is not immortal.
				y := app.Component("Y")
				_, regErr1 = AddOutPort(kid, y.SMM(), OutPortConfig{Name: "p", Type: intType})
				_, regErr2 = AddInPort(kid, y.SMM(), InPortConfig{
					Name: "q", Type: intType,
					Handler: HandlerFunc(func(*Proc, Message) error { return nil }),
				})
				return nil
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.NewImmortalComponent("Y", nil); err != nil {
		t.Fatal(err)
	}
	h, err := x.SMM().Connect("kid")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Disconnect()
	if regErr1 == nil {
		t.Error("non-ancestor out-port mediation accepted")
	}
	if regErr2 == nil {
		t.Error("non-ancestor in-port mediation accepted")
	}

	// Immortal-to-immortal mediation IS allowed: both live in the same
	// immortal area, so the assignment rules hold either way.
	y := app.Component("Y")
	if _, err := AddOutPort(x, y.SMM(), OutPortConfig{Name: "imm", Type: intType}); err != nil {
		t.Errorf("immortal sibling mediation rejected: %v", err)
	}
}

func TestPortValidation(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	c, err := app.NewImmortalComponent("C", nil)
	if err != nil {
		t.Fatal(err)
	}
	smm := c.SMM()
	h := HandlerFunc(func(*Proc, Message) error { return nil })

	if _, err := AddInPort(c, smm, InPortConfig{Name: "", Type: intType, Handler: h}); !errors.Is(err, ErrBadName) {
		t.Errorf("empty name err = %v", err)
	}
	if _, err := AddInPort(c, smm, InPortConfig{Name: "p", Type: MessageType{}, Handler: h}); err == nil {
		t.Error("invalid type accepted")
	}
	if _, err := AddInPort(c, smm, InPortConfig{Name: "p", Type: intType}); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := AddInPort(c, smm, InPortConfig{Name: "p", Type: intType, Handler: h, BufferSize: -1}); err == nil {
		t.Error("negative buffer accepted")
	}
	if _, err := AddOutPort(c, smm, OutPortConfig{Name: "", Type: intType}); !errors.Is(err, ErrBadName) {
		t.Errorf("empty out name err = %v", err)
	}
	if _, err := AddOutPort(c, smm, OutPortConfig{Name: "o", Type: MessageType{}}); err == nil {
		t.Error("invalid out type accepted")
	}

	// Lookups.
	if _, err := AddInPort(c, smm, InPortConfig{Name: "real", Type: intType, Handler: h}); err != nil {
		t.Fatal(err)
	}
	if _, err := smm.GetOutPort("nope"); !errors.Is(err, ErrUnknownPort) {
		t.Errorf("missing out port err = %v", err)
	}
	ip := smm.inPort("C.real")
	if ip.qname != "C.real" || ip.typ.Name != "Int" || ip.capacity != DefaultBufferSize {
		t.Errorf("in-port accessors: %q %q %d", ip.qname, ip.typ.Name, ip.capacity)
	}
}

// TestFanOutDelivery sends one message to two receivers under each cross-scope
// mechanism — one behind a synchronous port and one buffered, and, under the
// shared object, also two buffered ones finished by two pool workers on one
// envelope. Handoff sends through SendFrom, which it requires. Each handler
// runs once, the message pool balances — the shared object's message comes
// back after both receivers, serialization's at send time — and a buffered
// port counts its arrival, also under handoff, which calls it like the
// synchronous one.
func TestFanOutDelivery(t *testing.T) {
	for _, tc := range []struct {
		mech  Mechanism
		first Threading
	}{
		{MechanismSharedObject, ThreadingSynchronous},
		{MechanismSerialization, ThreadingSynchronous},
		{MechanismHandoff, ThreadingSynchronous},
		{MechanismSharedObject, ThreadingShared},
	} {
		t.Run(tc.mech.String()+"/"+tc.first.String(), func(t *testing.T) {
			app := newTestApp(t, AppConfig{})
			var runs [2]atomic.Int32
			mk := func(i int) Handler {
				return HandlerFunc(func(*Proc, Message) error {
					runs[i].Add(1)
					return nil
				})
			}
			comp, err := app.NewImmortalComponent("C", func(c *Component) error {
				smm := c.SMM()
				if _, err := AddInPort(c, smm, InPortConfig{Name: "a", Type: intType, Threading: tc.first, Handler: mk(0)}); err != nil {
					return err
				}
				if _, err := AddInPort(c, smm, InPortConfig{Name: "b", Type: intType, Handler: mk(1)}); err != nil {
					return err
				}
				_, err := AddOutPort(c, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"C.a", "C.b"}})
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			smm := comp.SMM()
			smm.SetMechanism(tc.mech)
			op, _ := smm.GetOutPort("out")
			if tc.mech == MechanismHandoff {
				err = comp.Exec(func(ctx *memory.Context) error {
					m, err := op.GetMessage()
					if err != nil {
						return err
					}
					return op.SendFrom(NewProc(comp, smm, ctx, 1), m, 1)
				})
			} else {
				m, _ := op.GetMessage()
				err = op.Send(m, 1)
			}
			if err != nil {
				t.Fatal(err)
			}
			// Drain returns once every buffered delivery released its owner,
			// which it does after settling its share of the message.
			if err := app.Drain(2 * time.Second); err != nil {
				t.Fatal(err)
			}
			for i, name := range []string{"a", "b"} {
				if n := runs[i].Load(); n != 1 {
					t.Errorf("%s handler ran %d times, want 1", name, n)
				}
			}
			if _, inFlight := msgPoolStats(smm, "Int"); inFlight != 0 {
				t.Errorf("pool not balanced: %d in flight", inFlight)
			}
			for _, name := range []string{"a", "b"} {
				if name == "a" && tc.first == ThreadingSynchronous {
					continue
				}
				if received, processed, _ := portStats(smm.inPort("C." + name)); received != 1 || processed != 1 {
					t.Errorf("buffered port %s received %d, processed %d, want 1 and 1", name, received, processed)
				}
			}
		})
	}
}

// Property: for any burst of values, every value arrives exactly once and
// the message pool balances. This exercises pooling, dispatch, and
// transient re-instantiation under load.
func TestPropertyBurstDelivery(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) > 24 {
			vals = vals[:24]
		}
		app, err := NewApp(AppConfig{Name: "prop", MsgPoolCapacity: 64})
		if err != nil {
			return false
		}
		defer app.Stop()
		got := make(chan int64, len(vals)+1)
		comp, err := app.NewImmortalComponent("C", func(c *Component) error {
			smm := c.SMM()
			if _, err := AddInPort(c, smm, InPortConfig{
				Name: "in", Type: intType, BufferSize: 64,
				Handler: HandlerFunc(func(_ *Proc, m Message) error {
					got <- m.(*intMsg).value
					return nil
				}),
			}); err != nil {
				return err
			}
			_, err := AddOutPort(c, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"C.in"}})
			return err
		})
		if err != nil {
			return false
		}
		op, err := comp.SMM().GetOutPort("out")
		if err != nil {
			return false
		}
		want := make(map[int64]int, len(vals))
		for _, v := range vals {
			m, err := op.GetMessage()
			if err != nil {
				return false
			}
			m.(*intMsg).value = int64(v)
			if err := op.Send(m, sched.Priority(v%7+1)); err != nil {
				return false
			}
			want[int64(v)]++
		}
		for i := 0; i < len(vals); i++ {
			select {
			case v := <-got:
				want[v]--
				if want[v] == 0 {
					delete(want, v)
				}
			case <-time.After(5 * time.Second):
				return false
			}
		}
		return len(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
