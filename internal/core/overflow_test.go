package core

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

// overflowType is the message type of the white-box buffer tests.
var overflowType = MessageType{Name: "OverflowTest", Size: 16, New: func() Message { return &testMsg{} }}

// newTestPort builds a bare InPort (no SMM, pool or binding) for white-box
// buffer tests, through the constructor registerIn uses.
func newTestPort(capacity int, policy Overflow) *InPort {
	return newInPort("T.in", InPortConfig{
		Name: "in", Type: overflowType, BufferSize: capacity, Overflow: policy,
	})
}

// portStats reports what a port counted: messages received (enqueued),
// processed, and dropped (buffer full). A synchronous port has nothing to
// enqueue: it counts a call once, when the handler returns, and reports
// that count as both received and processed.
func portStats(p *InPort) (received, processed, dropped int64) {
	if p.synchronous {
		n := p.processed.Load()
		return n, n, p.dropped.Load()
	}
	return p.received.Load(), p.processed.Load(), p.dropped.Load()
}

// testItem is a delivery of value v: a plain message, or, keyed, one that
// rides tenant lane 1 (TenantClassed).
func testItem(v int, prio sched.Priority, keyed bool) bufItem {
	if keyed {
		return bufItem{msg: &classedMsg{testMsg: testMsg{v: v}, class: 1}, prio: prio}
	}
	return bufItem{msg: &testMsg{v: v}, prio: prio}
}

// valueOf is the value a testItem carries.
func valueOf(m Message) int {
	if cm, ok := m.(*classedMsg); ok {
		return cm.v
	}
	return m.(*testMsg).v
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
		out = append(out, valueOf(it.msg))
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
	p := newTestPort(1, OverflowBlock)
	if err := p.push(testItem(1, sched.NormPriority, keyed)); err != nil {
		t.Fatal(err)
	}
	pushed := make(chan error, 1)
	go func() {
		pushed <- p.push(testItem(2, sched.NormPriority, keyed))
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
// delivery dropped unhandled fires, run over plain messages and keyed ones
// that ride a tenant lane (TenantClassed) — there is one buffer, so there is
// one set of rules.
func TestOverflowPolicies(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, keyed bool)
	}{
		{"Reject", func(t *testing.T, keyed bool) {
			p := newTestPort(2, OverflowReject)
			for v := 1; v <= 2; v++ {
				if err := p.push(testItem(v, sched.NormPriority, keyed)); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.push(testItem(3, sched.NormPriority, keyed)); !errors.Is(err, ErrBufferFull) {
				t.Fatalf("err = %v, want ErrBufferFull", err)
			}
			if _, _, dropped := portStats(p); dropped != 1 {
				t.Errorf("dropped = %d, want 1", dropped)
			}
			wantQueue(t, p, 1, 2)
		}},
		{"BlockUnblocksOnPop", func(t *testing.T, keyed bool) {
			p, pushed := blockedPush(t, keyed)
			if it, ok := p.pop(); !ok || valueOf(it.msg) != 1 {
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
			p := newTestPort(4, OverflowReject)
			var items [3]bufItem
			prios := [3]sched.Priority{5, 25, 5} // v2 is what a naive pop returns
			for i := range items {
				items[i] = testItem(i+1, prios[i], keyed)
				items[i].env = &envelope{}
				if err := p.push(items[i]); err != nil {
					t.Fatal(err)
				}
			}
			it, ok := p.removeItem(items[2].env, items[2].msg)
			if !ok || valueOf(it.msg) != 3 {
				t.Fatalf("removeItem = (%+v, %v), want the exact (env2, v3) delivery", it.msg, ok)
			}
			if _, ok := p.removeItem(items[2].env, items[2].msg); ok {
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

// A port divides a contested band across tenant lanes: a tenant that floods
// the band first does not starve one that arrives behind it.
func TestFairPortDividesBandAcrossClasses(t *testing.T) {
	p := newTestPort(16, OverflowReject)
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

// A queued delivery orphaned by a shutdown — its dispatch lost to the
// pool's — fires its OnShed hook exactly once, before release, so admission
// accounting can return its in-flight slot; the handler never runs, and the
// owner and the message pool get their reservation and message back.
func testShedAwareOnShed(t *testing.T, keyed bool) {
	app := newTestApp(t, AppConfig{})
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
			Handler: HandlerFunc(func(*Proc, Message) error {
				handled.Add(1)
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

	m, err := out.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	cm := m.(*classedMsg)
	cm.onShed = func() { shed.Add(1) }
	if keyed {
		cm.class = 1
	}
	// Queue the delivery as enqueue does, without the dispatch Submit: the
	// shutdown finds it buffered with nothing scheduled to run it.
	if _, err := comp.reserve(false); err != nil {
		t.Fatal(err)
	}
	in := comp.SMM().inPort("SA.in")
	if err := in.push(bufItem{env: newEnvelope(m, out.pool, 1), msg: m, prio: sched.NormPriority, owner: comp}); err != nil {
		t.Fatal(err)
	}
	app.Stop()
	if got := shed.Load(); got != 1 {
		t.Errorf("OnShed fired %d times for one orphaned delivery, want 1", got)
	}
	if got := handled.Load(); got != 0 {
		t.Errorf("handler ran %d times, want 0: an orphaned delivery must not run", got)
	}
	if pending := comp.life.Load() & pendingMask; pending != 0 {
		t.Errorf("owner still holds %d pending reservations", pending/pendingOne)
	}
	if _, inFlight := msgPoolStats(comp.SMM(), classedType.Name); inFlight != 0 {
		t.Errorf("%d messages in flight after the orphan was dropped, want 0", inFlight)
	}
}
