package core

import (
	"testing"

	"repro/internal/memory"
	"repro/internal/sched"
)

// portPushPop returns one steady-state buffer cycle — push a message, pop
// one — for each kind of traffic a port carries: a plain message, which
// rides tenant lane 0, one tenant-classed message, and a contested band. The
// contested variant keeps a standing backlog of four tenant lanes in the
// band, so every pop is a DRR turn; the other two pop straight from the
// band's one occupied lane.
func portPushPop(variant string) func() {
	p := newTestPort(8, OverflowReject)
	msgs := [5]Message{&testMsg{}}
	for c := 1; c < len(msgs); c++ {
		msgs[c] = &classedMsg{class: uint8(c)}
	}
	push := func(i int) {
		if err := p.push(bufItem{msg: msgs[i], prio: sched.NormPriority}); err != nil {
			panic(err)
		}
	}
	switch variant {
	case "plain":
		return func() { push(0); p.pop() }
	case "classed":
		return func() { push(1); p.pop() }
	}
	for i := 1; i < len(msgs); i++ {
		push(i)
	}
	next := 1
	return func() { push(next); next = next%(len(msgs)-1) + 1; p.pop() }
}

var portPushPopVariants = []string{"plain", "classed", "contested"}

func BenchmarkInPortPushPop(b *testing.B) {
	for _, v := range portPushPopVariants {
		b.Run(v, func(b *testing.B) {
			cycle := portPushPop(v)
			cycle() // the band is allocated the first time its priority is used
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}

// TestInPortPushPopAllocFree pins the port buffer at zero allocations per
// message once the priority level it carries has been used.
func TestInPortPushPopAllocFree(t *testing.T) {
	for _, v := range portPushPopVariants {
		cycle := portPushPop(v)
		cycle()
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("%s: push+pop allocates %.1f objects/op, want 0", v, allocs)
		}
	}
}

// syncPortCall runs body with one steady-state send to a synchronous port —
// GetMessage, the call, the message recycled — from a persistent scoped
// component Mid to its persistent child Sink, two scopes below immortal.
// "send" is the bare Send: the call frame's own context enters Sink's chain
// from the top, two areas. "sendfrom_parent" supplies the sender's context,
// current in Mid: one area. "nested_fig6" is the paper's round trip instead
// (fig6Call): three calls nested on one stack, both of Client's frames in use.
func syncPortCall(tb testing.TB, variant string, body func(call func())) {
	if variant == "nested_fig6" {
		fig6Call(tb, nil, body)
		return
	}
	app, err := NewApp(AppConfig{Name: "synccall"})
	if err != nil {
		tb.Fatal(err)
	}
	defer app.Stop()
	var out *OutPort
	top, err := app.NewImmortalComponent("Top", func(c *Component) error {
		return c.DefineChild(ChildDef{
			Name: "Mid", MemorySize: 1 << 14, Persistent: true,
			Setup: func(mid *Component) error {
				smm := mid.SMM()
				var err error
				if out, err = AddOutPort(mid, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"Sink.in"}}); err != nil {
					return err
				}
				return mid.DefineChild(ChildDef{
					Name: "Sink", MemorySize: 1 << 12, Persistent: true,
					Setup: func(sink *Component) error {
						_, err := AddInPort(sink, smm, InPortConfig{
							Name: "in", Type: intType, Threading: ThreadingSynchronous,
							Handler: HandlerFunc(func(*Proc, Message) error { return nil }),
						})
						return err
					},
				})
			},
		})
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := app.Start(); err != nil {
		tb.Fatal(err)
	}
	h, err := top.SMM().Connect("Mid")
	if err != nil {
		tb.Fatal(err)
	}
	defer h.Disconnect()
	mid := h.Component()
	send := func(proc *Proc) func() {
		return func() {
			m, err := out.GetMessage()
			if err == nil {
				err = out.SendFrom(proc, m, sched.NormPriority)
			}
			if err != nil {
				tb.Fatal(err)
			}
		}
	}
	if variant == "send" {
		body(send(nil))
		return
	}
	if err := mid.Exec(func(ctx *memory.Context) error {
		body(send(NewProc(mid, mid.SMM(), ctx, sched.NormPriority)))
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
}

// fig6Call runs body with one steady-state round trip in the shape of the
// paper's Fig. 6: a bare Send from IMC into Client.P2, whose handler calls
// Server.P4, whose handler calls back into Client.P6 — three synchronous
// hops nested on one stack, Client reserved twice, each hop a bare Send from
// the top as the Fig. 6 handlers make it. When seen is non-nil, hop i
// records the call frame it ran on (frameOf) in seen[i].
func fig6Call(tb testing.TB, seen *[3]int, body func(call func())) {
	app, err := NewApp(AppConfig{Name: "fig6"})
	if err != nil {
		tb.Fatal(err)
	}
	defer app.Stop()
	var p1 *OutPort
	_, err = app.NewImmortalComponent("IMC", func(imc *Component) error {
		smm := imc.SMM()
		var err error
		if p1, err = AddOutPort(imc, smm, OutPortConfig{Name: "P1", Type: intType, Dests: []string{"Client.P2"}}); err != nil {
			return err
		}
		// hop is hop i's handler: record the frame, then call on out, if any.
		hop := func(i int, out *OutPort) Handler {
			return HandlerFunc(func(p *Proc, m Message) error {
				if seen != nil {
					seen[i] = frameOf(p)
				}
				if out == nil {
					return nil
				}
				next, err := out.GetMessage()
				if err != nil {
					return err
				}
				next.(*intMsg).value = m.(*intMsg).value + 1
				return out.Send(next, p.Priority())
			})
		}
		// port gives c the synchronous In port in, running hop i, which calls
		// on the Out port out toward dest unless out is empty.
		port := func(c *Component, in string, i int, out, dest string) error {
			var o *OutPort
			if out != "" {
				var err error
				if o, err = AddOutPort(c, smm, OutPortConfig{Name: out, Type: intType, Dests: []string{dest}}); err != nil {
					return err
				}
			}
			_, err := AddInPort(c, smm, InPortConfig{Name: in, Type: intType, Threading: ThreadingSynchronous, Handler: hop(i, o)})
			return err
		}
		if err := imc.DefineChild(ChildDef{
			Name: "Client", MemorySize: 1 << 14, Persistent: true,
			Setup: func(c *Component) error {
				if err := port(c, "P2", 0, "P3", "Server.P4"); err != nil {
					return err
				}
				return port(c, "P6", 2, "", "")
			},
		}); err != nil {
			return err
		}
		return imc.DefineChild(ChildDef{
			Name: "Server", MemorySize: 1 << 14, Persistent: true,
			Setup: func(c *Component) error { return port(c, "P4", 1, "P5", "Client.P6") },
		})
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := app.Start(); err != nil {
		tb.Fatal(err)
	}
	body(func() {
		m, err := p1.GetMessage()
		if err == nil {
			err = p1.Send(m, sched.NormPriority)
		}
		if err != nil {
			tb.Fatal(err)
		}
	})
	if n, err := app.Errors(); n != 0 {
		tb.Fatalf("%d handler errors, last: %v", n, err)
	}
}

var syncPortCallVariants = []string{"send", "sendfrom_parent", "nested_fig6"}

func BenchmarkSyncPortCall(b *testing.B) {
	for _, v := range syncPortCallVariants {
		b.Run(v, func(b *testing.B) {
			syncPortCall(b, v, func(call func()) {
				call() // instantiates the child
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					call()
				}
			})
		})
	}
}

// TestSyncPortCallAllocFree pins a send to a synchronous port at zero
// allocations, with the sender's context and without, and the nested Fig. 6
// round trip. Every hop runs on a call frame its receiver's reservation
// claimed, not on a pooled call state, so the guard holds under -race too,
// where sync.Pool drops items.
func TestSyncPortCallAllocFree(t *testing.T) {
	for _, v := range syncPortCallVariants {
		syncPortCall(t, v, func(call func()) {
			call()
			if allocs := testing.AllocsPerRun(1000, call); allocs != 0 {
				t.Errorf("%s: a synchronous send allocates %.1f objects/op, want 0", v, allocs)
			}
		})
	}
}
