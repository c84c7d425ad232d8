package core

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

// overflowType is the message type of the white-box buffer tests.
var overflowType = MessageType{Name: "OverflowTest", Size: 16, New: func() Message { return &testMsg{} }}

// newTestPort builds a bare InPort (no SMM, pool or binding) for white-box
// buffer tests, through the constructor registerIn uses. keyed is
// InPortConfig.Fair.
func newTestPort(capacity int, policy Overflow, keyed bool, weights ...int32) *InPort {
	return newInPort("T.in", InPortConfig{
		Name: "in", Type: overflowType, BufferSize: capacity,
		Overflow: policy, Fair: keyed, FairWeights: weights,
	})
}

func mustPush(t *testing.T, p *InPort, v int, prio sched.Priority) {
	t.Helper()
	if err := p.push(bufItem{msg: &testMsg{v: v}, prio: prio}); err != nil {
		t.Fatal(err)
	}
}

func popValues(p *InPort) []int {
	var out []int
	for {
		it, ok := p.pop()
		if !ok {
			return out
		}
		out = append(out, it.msg.(*testMsg).v)
	}
}

// wantQueue drains p and checks the surviving messages and their order.
func wantQueue(t *testing.T, p *InPort, want ...int) {
	t.Helper()
	if got := popValues(p); !slices.Equal(got, want) {
		t.Fatalf("queue = %v, want %v", got, want)
	}
}

// blockedPush fills a one-slot Block port and parks a second sender on it.
func blockedPush(t *testing.T, keyed bool) (*InPort, <-chan error) {
	t.Helper()
	p := newTestPort(1, OverflowBlock, keyed)
	mustPush(t, p, 1, sched.NormPriority)
	pushed := make(chan error, 1)
	go func() {
		pushed <- p.push(bufItem{msg: &testMsg{v: 2}, prio: sched.NormPriority})
	}()
	select {
	case err := <-pushed:
		t.Fatalf("push on a full Block port returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	return p, pushed
}

// TestOverflowPolicies is the one table of buffer behaviour: both overflow
// policies' contracts, the retraction the send path relies on and the hook a
// delivery dropped unhandled fires, run over an un-keyed and a keyed
// (InPortConfig.Fair) port — there is one buffer, so there is one set of
// rules.
func TestOverflowPolicies(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, keyed bool)
	}{
		{"Reject", func(t *testing.T, keyed bool) {
			p := newTestPort(2, OverflowReject, keyed)
			mustPush(t, p, 1, sched.NormPriority)
			mustPush(t, p, 2, sched.NormPriority)
			if err := p.push(bufItem{msg: &testMsg{v: 3}, prio: sched.NormPriority}); !errors.Is(err, ErrBufferFull) {
				t.Fatalf("err = %v, want ErrBufferFull", err)
			}
			if _, _, dropped := p.Stats(); dropped != 1 {
				t.Errorf("dropped = %d, want 1", dropped)
			}
			if p.Shed() != 0 {
				t.Errorf("a refused newcomer counted as shed = %d, want 0", p.Shed())
			}
			wantQueue(t, p, 1, 2)
		}},
		{"BlockUnblocksOnPop", func(t *testing.T, keyed bool) {
			p, pushed := blockedPush(t, keyed)
			if it, ok := p.pop(); !ok || it.msg.(*testMsg).v != 1 {
				t.Fatal("pop failed")
			}
			select {
			case err := <-pushed:
				if err != nil {
					t.Fatalf("blocked push failed after space freed: %v", err)
				}
			case <-time.After(time.Second):
				t.Fatal("push still blocked after pop freed a slot")
			}
		}},
		{"BlockWokenByClose", func(t *testing.T, keyed bool) {
			p, pushed := blockedPush(t, keyed)
			p.closePort()
			select {
			case err := <-pushed:
				if !errors.Is(err, ErrStopped) {
					t.Fatalf("err = %v, want ErrStopped", err)
				}
			case <-time.After(time.Second):
				t.Fatal("blocked push not woken by closePort")
			}
		}},
		{"RemoveItemExact", func(t *testing.T, keyed bool) {
			// The retraction contract the send path relies on: when a dispatch
			// submission fails after its item was pushed, removeItem pulls back
			// that exact delivery, not whichever message is next in queue order
			// (which could orphan another sender's delivery while the failed one
			// stayed queued against a recycled completion channel).
			p := newTestPort(4, OverflowReject, keyed)
			envs := [3]*envelope{{}, {}, {}}
			msgs := [3]*testMsg{{v: 1}, {v: 2}, {v: 3}}
			prios := [3]sched.Priority{5, 25, 5} // v2 is what a naive pop returns
			for i := range envs {
				if err := p.push(bufItem{env: envs[i], msg: msgs[i], prio: prios[i]}); err != nil {
					t.Fatal(err)
				}
			}
			it, ok := p.removeItem(envs[2], msgs[2])
			if !ok || it.msg.(*testMsg).v != 3 {
				t.Fatalf("removeItem = (%+v, %v), want the exact (env2, v3) delivery", it.msg, ok)
			}
			if _, ok := p.removeItem(envs[2], msgs[2]); ok {
				t.Fatal("removeItem found an already-retracted delivery")
			}
			wantQueue(t, p, 2, 1)
		}},
		{"ShedAwareOnShed", testShedAwareOnShed},
	}
	for _, row := range rows {
		for _, kind := range []struct {
			name  string
			keyed bool
		}{{"unkeyed", false}, {"keyed", true}} {
			t.Run(row.name+"/"+kind.name, func(t *testing.T) { row.run(t, kind.keyed) })
		}
	}
}

// Out-of-range priorities clamp into the shed-counter table instead of
// panicking.
func TestShedBandCounterClamps(t *testing.T) {
	if c := shedBandCounter(-3); c != shedBandCounter(0) {
		t.Error("negative priority did not clamp to band 0")
	}
	if c := shedBandCounter(99); c != shedBandCounter(sched.MaxPriority) {
		t.Error("oversized priority did not clamp to the top band")
	}
}

// classedMsg is a testMsg carrying a tenant class and a shed observer.
type classedMsg struct {
	testMsg
	class  uint8
	onShed func()
}

func (m *classedMsg) TenantClass() uint8 { return m.class }
func (m *classedMsg) OnShed() {
	if m.onShed != nil {
		m.onShed()
	}
}

// classedType is the pooled message type for ShedAware end-to-end tests.
var classedType = MessageType{Name: "ClassedTest", Size: 32, New: func() Message { return &classedMsg{} }}

// A keyed port divides a contested band across tenant classes where an
// un-keyed one serves pure FIFO within the band — the starvation the key
// exists to fix.
func TestFairPortDividesBandAcrossClasses(t *testing.T) {
	p := newTestPort(16, OverflowReject, true)
	// Tenant A floods 12 messages before tenant B's 4 arrive.
	for i := 0; i < 12; i++ {
		mustPush(t, p, 100+i, 10)
	}
	for i := 0; i < 4; i++ {
		if err := p.push(bufItem{msg: &classedMsg{testMsg: testMsg{v: 200 + i}, class: 1}, prio: 10}); err != nil {
			t.Fatal(err)
		}
	}
	// Within the first 8 pops, equal weights must interleave: B gets 4.
	bSeen := 0
	for i := 0; i < 8; i++ {
		it, ok := p.pop()
		if !ok {
			t.Fatal("pop failed")
		}
		if _, isB := it.msg.(*classedMsg); isB {
			bSeen++
		}
	}
	if bSeen != 4 {
		t.Errorf("late tenant got %d of the first 8 pops, want 4 (equal-weight DRR)", bSeen)
	}
}

// A queued delivery dropped unhandled — here expired at dequeue on a
// ShedExpired port — fires its OnShed hook exactly once, before release, so
// admission accounting can return its in-flight slot, and the shed is
// attributed to its band.
func testShedAwareOnShed(t *testing.T, keyed bool) {
	app := newTestApp(t, AppConfig{})
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	t.Cleanup(release) // before app.Stop: a parked handler would hold it
	started := make(chan struct{})
	var handled, shed atomic.Int32
	var out *OutPort
	comp, err := app.NewImmortalComponent("SA", func(c *Component) error {
		smm := c.SMM()
		var aerr error
		out, aerr = AddOutPort(c, smm, OutPortConfig{Name: "out", Type: classedType, Dests: []string{"SA.in"}})
		if aerr != nil {
			return aerr
		}
		_, aerr = AddInPort(c, smm, InPortConfig{
			Name: "in", Type: classedType, BufferSize: 1,
			Threading: ThreadingDedicated, MinThreads: 1, MaxThreads: 1,
			Fair: keyed, ShedExpired: true,
			Handler: HandlerFunc(func(p *Proc, m Message) error {
				if handled.Add(1) == 1 {
					close(started)
					<-block
				}
				return nil
			}),
		})
		return aerr
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}

	send := func(prio sched.Priority) {
		m, err := out.GetMessage()
		if err != nil {
			t.Fatal(err)
		}
		m.(*classedMsg).onShed = func() { shed.Add(1) }
		if err := out.Send(m, prio); err != nil {
			t.Fatal(err)
		}
	}
	const band = 3
	before := shedBandCounter(band).Value()
	send(sched.NormPriority) // pins the worker
	<-started
	out.SetSendDeadline(time.Nanosecond)
	send(band) // waits in the buffer, expired by the time the worker pops it
	release()
	if !comp.changed.Wait(func() bool { return comp.life.Load()&pendingMask == 0 }, time.Now().Add(5*time.Second)) {
		t.Fatal("the expired delivery was never released")
	}
	if got := shed.Load(); got != 1 {
		t.Errorf("OnShed fired %d times after one expired shed, want 1", got)
	}
	if got := handled.Load(); got != 1 {
		t.Errorf("handler ran %d times, want 1: the expired delivery must not run", got)
	}
	if got := shedBandCounter(band).Value(); got != before+1 {
		t.Errorf("shed_expired_band_%d_total = %d, want %d", band, got, before+1)
	}
}
