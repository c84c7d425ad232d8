package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/sched"
)

// frameOf names the call state a handler runs on: 0 or 1 for its owner's
// resident call frames, -1 for one drawn from App.calls. It compares
// addresses only, so it reads nothing another holder may be writing.
func frameOf(p *Proc) int {
	for i := range p.comp.frames {
		if p == &p.comp.frames[i].proc {
			return i
		}
	}
	return -1
}

// TestSyncCallFramesFig6 pins where the three hops of the Fig. 6 round trip
// run: IMC→Client on Client's first frame, Client→Server on Server's first,
// Server→Client on Client's second — no call state from App.calls — and
// round trip after round trip, so every frame was given back.
func TestSyncCallFramesFig6(t *testing.T) {
	var seen [3]int
	fig6Call(t, &seen, func(call func()) {
		call() // instantiates Client and Server: slow-path reservations, no frames
		for i := 0; i < 3; i++ {
			seen = [3]int{-2, -2, -2}
			call()
			if seen != [3]int{0, 0, 1} {
				t.Fatalf("round trip %d ran its hops on frames %v, want [0 0 1]", i, seen)
			}
		}
	})
}

// syncSink is a top-level component with a persistent child Sink behind one
// synchronous port running handler, instantiated and pinned for the test.
func syncSink(t *testing.T, handler HandlerFunc) (*App, *OutPort, *Component) {
	t.Helper()
	app := newTestApp(t, AppConfig{MsgPoolCapacity: 16})
	var out *OutPort
	top, err := app.NewImmortalComponent("Top", func(c *Component) error {
		smm := c.SMM()
		var err error
		if out, err = AddOutPort(c, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"Sink.in"}}); err != nil {
			return err
		}
		return c.DefineChild(ChildDef{
			Name: "Sink", MemorySize: 1 << 12, Persistent: true,
			Setup: func(s *Component) error {
				_, err := AddInPort(s, smm, InPortConfig{
					Name: "in", Type: intType, Threading: ThreadingSynchronous, Handler: handler,
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
	return app, out, connectChild(t, top, "Sink")
}

// sendValue sends one message carrying v on out.
func sendValue(out *OutPort, v int64) error {
	m, err := out.GetMessage()
	if err != nil {
		return err
	}
	m.(*intMsg).value = v
	return out.Send(m, sched.NormPriority)
}

// TestSyncCallFrameFallback holds eight callers inside one synchronous
// port's handler at once: two run on the receiver's frames, one each, and
// the other six on call states from App.calls — and every caller's handler
// sees its own message. Once they return, no frame bit is left in the word.
func TestSyncCallFrameFallback(t *testing.T) {
	const callers = 8
	var inside sync.WaitGroup
	inside.Add(callers)
	var mu sync.Mutex
	frames := map[int]int{}
	got := map[int64]int64{}
	_, out, sink := syncSink(t, func(p *Proc, m Message) error {
		inside.Done()
		inside.Wait() // every caller is in a handler now
		mu.Lock()
		frames[frameOf(p)]++
		got[m.(*intMsg).value]++
		mu.Unlock()
		return nil
	})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(v int64) {
			defer wg.Done()
			if err := sendValue(out, v); err != nil {
				t.Error(err)
			}
		}(int64(i))
	}
	wg.Wait()
	if frames[0] != 1 || frames[1] != 1 || frames[-1] != callers-2 {
		t.Errorf("handlers ran on frames %v, want one on each frame and %d from App.calls", frames, callers-2)
	}
	for v := int64(0); v < callers; v++ {
		if got[v] != 1 {
			t.Errorf("message %d handled %d times", v, got[v])
		}
	}
	if w := sink.life.Load(); w&(frameMask|pendingMask) != 0 {
		t.Errorf("life word %#x after the callers returned, want no frame and nothing pending", w)
	}
}

// TestSyncCallFramePanic: a handler that panics on a call frame leaves the
// frame's context balanced and the frame free, and the next call runs on it.
func TestSyncCallFramePanic(t *testing.T) {
	var frame int
	app, out, sink := syncSink(t, func(p *Proc, m Message) error {
		frame = frameOf(p)
		if m.(*intMsg).value < 0 {
			panic("asked to")
		}
		return nil
	})
	for _, v := range []int64{1, -1, 2} {
		frame = -2
		if err := sendValue(out, v); err != nil {
			t.Fatal(err)
		}
		if frame != 0 {
			t.Errorf("message %d ran on frame %d, want 0", v, frame)
		}
		if d := sink.frames[0].ctx.Depth(); d != 1 {
			t.Errorf("after message %d the frame's scope stack is %d deep, want 1", v, d)
		}
		if w := sink.life.Load(); w&frameMask != 0 {
			t.Errorf("after message %d the life word %#x still holds a frame", v, w)
		}
	}
	if n, err := app.Errors(); n != 1 || !strings.Contains(err.Error(), "handler panic") {
		t.Errorf("%d handler errors (last %v), want the one panic", n, err)
	}
}
