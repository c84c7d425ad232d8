package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
)

// TestChildStartSendsToSibling exercises the pattern the paper's skeletons
// invite ("_start ... may send the first messages"): a child's start
// function sends to a sibling that is not yet instantiated, which requires
// the same SMM's instantiation machinery while the first instantiation is
// still in progress.
func TestChildStartSendsToSibling(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	got := make(chan int64, 1)

	parent, err := app.NewImmortalComponent("P", func(c *Component) error {
		smm := c.SMM()
		if err := c.DefineChild(ChildDef{
			Name: "Starter", MemorySize: 1 << 14, Persistent: true,
			Setup: func(st *Component) error {
				if _, err := AddOutPort(st, smm, OutPortConfig{
					Name: "out", Type: intType, Dests: []string{"Sibling.in"},
				}); err != nil {
					return err
				}
				st.SetStart(func(p *Proc) error {
					// External ports live in the parent's SMM; p.SMM() is
					// the child's own manager (for its future children).
					out, err := smm.GetOutPort("Starter.out")
					if err != nil {
						return err
					}
					m, err := out.GetMessage()
					if err != nil {
						return err
					}
					m.(*intMsg).value = 99
					return out.Send(m, sched.NormPriority)
				})
				return nil
			},
		}); err != nil {
			return err
		}
		return c.DefineChild(ChildDef{
			Name: "Sibling", MemorySize: 1 << 14, Persistent: true,
			Setup: func(sb *Component) error {
				_, err := AddInPort(sb, smm, InPortConfig{
					Name: "in", Type: intType,
					Handler: HandlerFunc(func(p *Proc, m Message) error {
						got <- m.(*intMsg).value
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

	h, err := parent.SMM().Connect("Starter")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Disconnect()
	if v := waitRecv(t, got); v != 99 {
		t.Errorf("value = %d, want 99", v)
	}
	if n, err := app.Errors(); n != 0 {
		t.Errorf("handler errors: %d (%v)", n, err)
	}
}

// TestNoDispatchBeforeStart verifies the initialisation guarantee behind
// the ORB's lazy-dial Transport: messages delivered while a child is still
// starting are processed only after its start function completes.
func TestNoDispatchBeforeStart(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	startGate := make(chan struct{})
	var mu sync.Mutex
	var events []string

	parent, err := app.NewImmortalComponent("P", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddOutPort(c, smm, OutPortConfig{
			Name: "out", Type: intType, Dests: []string{"Slow.in"},
		}); err != nil {
			return err
		}
		return c.DefineChild(ChildDef{
			Name: "Slow", MemorySize: 1 << 14, Persistent: true,
			Setup: func(sl *Component) error {
				if _, err := AddInPort(sl, smm, InPortConfig{
					Name: "in", Type: intType,
					Handler: HandlerFunc(func(p *Proc, m Message) error {
						mu.Lock()
						events = append(events, "handler")
						mu.Unlock()
						return nil
					}),
				}); err != nil {
					return err
				}
				sl.SetStart(func(p *Proc) error {
					<-startGate // a slow initialisation (e.g. dialling)
					mu.Lock()
					events = append(events, "started")
					mu.Unlock()
					return nil
				})
				return nil
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	out, err := parent.SMM().GetOutPort("P.out")
	if err != nil {
		t.Fatal(err)
	}
	// First send triggers instantiation on this goroutine's materialize
	// path; do it from a helper goroutine since Start blocks on the gate.
	sendDone := make(chan error, 2)
	send := func() {
		m, err := out.GetMessage()
		if err != nil {
			sendDone <- err
			return
		}
		sendDone <- out.Send(m, sched.NormPriority)
	}
	go send()
	go send() // races with the in-flight instantiation
	time.Sleep(20 * time.Millisecond)

	mu.Lock()
	early := len(events)
	mu.Unlock()
	if early != 0 {
		t.Fatalf("events before start completed: %v", events)
	}
	close(startGate)
	for i := 0; i < 2; i++ {
		if err := <-sendDone; err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		done := len(events) == 3
		first := ""
		if len(events) > 0 {
			first = events[0]
		}
		mu.Unlock()
		if done {
			if first != "started" {
				t.Errorf("events = %v, want started first", events)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("events = %v, want [started handler handler]", events)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStartFailureDisposesChild verifies that a failing start function
// reclaims the instance and surfaces the error.
func TestStartFailureDisposesChild(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	boom := errors.New("boom")
	parent, err := app.NewImmortalComponent("P", func(c *Component) error {
		return c.DefineChild(ChildDef{
			Name: "Faulty", MemorySize: 1 << 14,
			Setup: func(f *Component) error {
				f.SetStart(func(*Proc) error { return boom })
				return nil
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.SMM().Connect("Faulty"); !errors.Is(err, boom) {
		t.Errorf("connect err = %v, want boom", err)
	}
	if parent.SMM().Child("Faulty") != nil {
		t.Error("failed child still registered")
	}
	// A later connect retries from scratch (and fails the same way).
	if _, err := parent.SMM().Connect("Faulty"); !errors.Is(err, boom) {
		t.Errorf("second connect err = %v", err)
	}
}

// TestSetupFailureRollsBack verifies that a failing Setup releases the
// area and leaves no live child behind.
func TestSetupFailureRollsBack(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	boom := errors.New("setup boom")
	parent, err := app.NewImmortalComponent("P", func(c *Component) error {
		return c.DefineChild(ChildDef{
			Name: "Broken", MemorySize: 1 << 14,
			Setup: func(*Component) error { return boom },
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	before := stateOf(app.Model().Immortal()).used
	if _, err := parent.SMM().Connect("Broken"); !errors.Is(err, boom) {
		t.Errorf("connect err = %v", err)
	}
	if parent.SMM().Child("Broken") != nil {
		t.Error("broken child registered")
	}
	// No immortal leak beyond the failed attempt's header-free rollback.
	after := stateOf(app.Model().Immortal()).used
	if after != before {
		t.Logf("immortal delta after failed setup: %d bytes (allowed: setup-time charges persist)", after-before)
	}
}

// TestDeepNestingFourLevels mirrors the server-side ORB structure: four
// component levels with messages descending through each.
func TestDeepNestingFourLevels(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	got := make(chan int64, 1)

	// Build nested defs L1 > L2 > L3, rooted at immortal L0.
	l0, err := app.NewImmortalComponent("L0", func(c *Component) error {
		l0SMM := c.SMM()
		if _, err := AddOutPort(c, l0SMM, OutPortConfig{
			Name: "down", Type: intType, Dests: []string{"L1.in"},
		}); err != nil {
			return err
		}
		return c.DefineChild(ChildDef{
			Name: "L1", MemorySize: 1 << 15, Persistent: true,
			Setup: func(l1 *Component) error {
				l1SMM := l1.SMM()
				if _, err := AddInPort(l1, l0SMM, InPortConfig{
					Name: "in", Type: intType,
					Handler: forwardHandler(l1SMM, "L1.down"),
				}); err != nil {
					return err
				}
				if _, err := AddOutPort(l1, l1SMM, OutPortConfig{
					Name: "down", Type: intType, Dests: []string{"L2.in"},
				}); err != nil {
					return err
				}
				return l1.DefineChild(ChildDef{
					Name: "L2", MemorySize: 1 << 15, Persistent: true,
					Setup: func(l2 *Component) error {
						l2SMM := l2.SMM()
						if _, err := AddInPort(l2, l1SMM, InPortConfig{
							Name: "in", Type: intType,
							Handler: forwardHandler(l2SMM, "L2.down"),
						}); err != nil {
							return err
						}
						if _, err := AddOutPort(l2, l2SMM, OutPortConfig{
							Name: "down", Type: intType, Dests: []string{"L3.in"},
						}); err != nil {
							return err
						}
						return l2.DefineChild(ChildDef{
							Name: "L3", MemorySize: 1 << 14,
							Setup: func(l3 *Component) error {
								_, err := AddInPort(l3, l2SMM, InPortConfig{
									Name: "in", Type: intType,
									Handler: HandlerFunc(func(p *Proc, m Message) error {
										if p.comp.Level() != 3 {
											t.Errorf("L3 level = %d", p.comp.Level())
										}
										got <- m.(*intMsg).value
										return nil
									}),
								})
								return err
							},
						})
					},
				})
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := l0.SMM().GetOutPort("L0.down")
	if err != nil {
		t.Fatal(err)
	}
	m, err := out.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	m.(*intMsg).value = 7
	if err := out.Send(m, 5); err != nil {
		t.Fatal(err)
	}
	if v := waitRecv(t, got); v != 7 {
		t.Errorf("value = %d", v)
	}
	if n, err := app.Errors(); n != 0 {
		t.Errorf("handler errors: %d (%v)", n, err)
	}
}

// forwardHandler relays an incoming intMsg out through the named port.
func forwardHandler(smm *SMM, outName string) Handler {
	return HandlerFunc(func(p *Proc, m Message) error {
		out, err := smm.GetOutPort(outName)
		if err != nil {
			return err
		}
		fwd, err := out.GetMessage()
		if err != nil {
			return err
		}
		fwd.(*intMsg).value = m.(*intMsg).value
		return out.Send(fwd, p.Priority())
	})
}
