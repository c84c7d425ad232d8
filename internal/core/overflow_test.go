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

// overflowType is the message type used by the end-to-end shedding test.
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
	if _, _, err := p.push(bufItem{msg: &testMsg{v: v}, prio: prio}); err != nil {
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
		_, _, err := p.push(bufItem{msg: &testMsg{v: 2}, prio: sched.NormPriority})
		pushed <- err
	}()
	select {
	case err := <-pushed:
		t.Fatalf("push on a full Block port returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	return p, pushed
}

// TestOverflowPolicies is the one table of buffer-full behaviour: every
// policy's contract, run over an un-keyed and a keyed (InPortConfig.Fair)
// port — there is one buffer, so there is one set of rules.
func TestOverflowPolicies(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, keyed bool)
	}{
		{"Reject", func(t *testing.T, keyed bool) {
			p := newTestPort(2, OverflowReject, keyed)
			mustPush(t, p, 1, sched.NormPriority)
			mustPush(t, p, 2, sched.NormPriority)
			_, _, err := p.push(bufItem{msg: &testMsg{v: 3}, prio: sched.NormPriority})
			if !errors.Is(err, ErrBufferFull) {
				t.Fatalf("err = %v, want ErrBufferFull", err)
			}
			if _, _, dropped := p.Stats(); dropped != 1 {
				t.Errorf("dropped = %d, want 1", dropped)
			}
			if p.Shed() != 0 {
				t.Errorf("reject policy counted shed = %d, want 0", p.Shed())
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
		{"DropOldest", func(t *testing.T, keyed bool) {
			p := newTestPort(3, OverflowDropOldest, keyed)
			mustPush(t, p, 1, 20) // oldest, despite the higher band
			mustPush(t, p, 2, 5)
			mustPush(t, p, 3, 5)
			victim, evicted, err := p.push(bufItem{msg: &testMsg{v: 4}, prio: 10})
			if err != nil || !evicted || victim.msg.(*testMsg).v != 1 {
				t.Fatalf("victim = %+v (evicted %v, err %v), want the oldest, v1", victim.msg, evicted, err)
			}
			wantQueue(t, p, 4, 2, 3)
			if p.Shed() != 1 {
				t.Errorf("shed = %d, want 1", p.Shed())
			}
		}},
		{"ShedLowestVictim", func(t *testing.T, keyed bool) {
			p := newTestPort(3, OverflowShedLowest, keyed)
			mustPush(t, p, 1, 5)
			mustPush(t, p, 2, 20)
			mustPush(t, p, 3, 10)
			// A higher-priority newcomer evicts the priority-5 victim.
			victim, evicted, err := p.push(bufItem{msg: &testMsg{v: 4}, prio: 15})
			if err != nil || !evicted || victim.prio != 5 {
				t.Fatalf("victim prio = %d (evicted %v, err %v), want 5", victim.prio, evicted, err)
			}
			// A newcomer no more urgent than everything queued is itself shed.
			if _, _, err = p.push(bufItem{msg: &testMsg{v: 5}, prio: 10}); !errors.Is(err, ErrBufferFull) {
				t.Fatalf("low-priority newcomer err = %v, want ErrBufferFull", err)
			}
			wantQueue(t, p, 2, 4, 3) // prio 20, 15, 10
			if p.Shed() != 2 {
				t.Errorf("shed = %d, want 2 (one victim, one rejected newcomer)", p.Shed())
			}
		}},
		{"ShedLowestTakesOldestOfLowestBand", func(t *testing.T, keyed bool) {
			p := newTestPort(3, OverflowShedLowest, keyed)
			mustPush(t, p, 1, 5)
			if _, _, err := p.push(bufItem{msg: &classedMsg{testMsg: testMsg{v: 2}, class: 1}, prio: 5}); err != nil {
				t.Fatal(err)
			}
			mustPush(t, p, 3, 5)
			victim, evicted, err := p.push(bufItem{msg: &testMsg{v: 4}, prio: 9})
			if err != nil || !evicted {
				t.Fatalf("evicted = %v, err = %v", evicted, err)
			}
			if victim.msg.(*testMsg).v != 1 {
				t.Errorf("victim = v%d, want the oldest of the band, v1", victim.msg.(*testMsg).v)
			}
		}},
		{"ShedLowestClampsThePriorities", func(t *testing.T, keyed bool) {
			// Out-of-band priorities queue in the top band, as the dispatch
			// pool runs them: none outranks another.
			p := newTestPort(1, OverflowShedLowest, keyed)
			mustPush(t, p, 1, sched.MaxPriority)
			if _, _, err := p.push(bufItem{msg: &testMsg{v: 2}, prio: sched.MaxPriority + 9}); !errors.Is(err, ErrBufferFull) {
				t.Fatalf("err = %v, want ErrBufferFull: the newcomer does not outrank the top band", err)
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
				if _, _, err := p.push(bufItem{env: envs[i], msg: msgs[i], prio: prios[i]}); err != nil {
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
		{"ShedCountersPerCauseAndBand", func(t *testing.T, keyed bool) {
			// Every shed is attributed to its policy and the victim's band:
			// brown-out control needs to know WHAT it is dropping.
			dropOldest7 := shedBandCounter(shedCauseDropOldest, 7).Value()
			shedLowest5 := shedBandCounter(shedCauseShedLowest, 5).Value()
			shedLowest9 := shedBandCounter(shedCauseShedLowest, 9).Value()

			p := newTestPort(1, OverflowDropOldest, keyed)
			mustPush(t, p, 1, 7)
			mustPush(t, p, 2, 12)
			if got := shedBandCounter(shedCauseDropOldest, 7).Value(); got != dropOldest7+1 {
				t.Errorf("shed_dropoldest_band_7_total = %d, want %d", got, dropOldest7+1)
			}

			q := newTestPort(1, OverflowShedLowest, keyed)
			mustPush(t, q, 1, 5)
			mustPush(t, q, 2, 20)
			if got := shedBandCounter(shedCauseShedLowest, 5).Value(); got != shedLowest5+1 {
				t.Errorf("shed_shedlowest_band_5_total = %d, want %d (evicted victim)", got, shedLowest5+1)
			}
			if _, _, err := q.push(bufItem{msg: &testMsg{v: 3}, prio: 9}); !errors.Is(err, ErrBufferFull) {
				t.Fatalf("err = %v, want ErrBufferFull", err)
			}
			if got := shedBandCounter(shedCauseShedLowest, 9).Value(); got != shedLowest9+1 {
				t.Errorf("shed_shedlowest_band_9_total = %d, want %d (rejected newcomer)", got, shedLowest9+1)
			}
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
	if c := shedBandCounter(shedCauseExpired, -3); c != shedBandCounter(shedCauseExpired, 0) {
		t.Error("negative priority did not clamp to band 0")
	}
	if c := shedBandCounter(shedCauseExpired, 99); c != shedBandCounter(shedCauseExpired, sched.MaxPriority) {
		t.Error("oversized priority did not clamp to the top band")
	}
}

// TestOverflowEndToEndShedLowest drives a real component whose slow In port
// uses priority-aware shedding: under overload every high-priority message
// survives while low-priority traffic is shed, and the SMM's bookkeeping
// (pending counts, message pool) stays balanced.
func TestOverflowEndToEndShedLowest(t *testing.T) {
	app, err := NewApp(AppConfig{Name: "shed", ImmortalSize: 1 << 20, MsgPoolCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()

	release := make(chan struct{})
	var mu sync.Mutex
	var seen []int

	var out *OutPort
	_, err = app.NewImmortalComponent("T", func(c *Component) error {
		smm := c.SMM()
		var aerr error
		out, aerr = AddOutPort(c, smm, OutPortConfig{
			Name: "out", Type: overflowType, Dests: []string{"T.in"},
		})
		if aerr != nil {
			return aerr
		}
		_, aerr = AddInPort(c, smm, InPortConfig{
			Name: "in", Type: overflowType, BufferSize: 4,
			Threading: ThreadingDedicated, MinThreads: 1, MaxThreads: 1,
			Overflow: OverflowShedLowest,
			Handler: HandlerFunc(func(p *Proc, m Message) error {
				<-release
				mu.Lock()
				seen = append(seen, m.(*testMsg).v)
				mu.Unlock()
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

	// Flood: far more messages than the buffer holds, low priority first.
	const total = 24
	var sendErrs int
	for i := 0; i < total; i++ {
		m, err := out.GetMessage()
		if err != nil {
			t.Fatal(err)
		}
		m.(*testMsg).v = i
		prio := sched.Priority(2)
		if i >= total-4 {
			prio = sched.Priority(28) // the last four are critical
		}
		if err := out.Send(m, prio); err != nil {
			sendErrs++
		}
	}
	close(release)

	deadline := time.After(5 * time.Second)
	for {
		in, err := app.Component("T").SMM().GetInPort("T.in")
		if err != nil {
			t.Fatal(err)
		}
		received, processed, dropped := in.Stats()
		// dropped = rejected newcomers (surfaced as Send errors) + evicted
		// victims; only non-evicted arrivals ever reach the handler.
		evictions := dropped - int64(sendErrs)
		if processed == received-evictions {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("handler drained %d of %d", processed, received)
		case <-time.After(5 * time.Millisecond):
		}
	}

	mu.Lock()
	defer mu.Unlock()
	critical := 0
	for _, v := range seen {
		if v >= total-4 {
			critical++
		}
	}
	if critical != 4 {
		t.Errorf("only %d of 4 critical messages survived overload; seen = %v", critical, seen)
	}
	in, _ := app.Component("T").SMM().GetInPort("T.in")
	if in.Shed() == 0 && sendErrs == 0 {
		t.Error("no shedding recorded despite flooding a 4-slot buffer")
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
		if _, _, err := p.push(bufItem{msg: &classedMsg{testMsg: testMsg{v: 200 + i}, class: 1}, prio: 10}); err != nil {
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

// An eviction victim's OnShed hook fires exactly once, before release, so
// admission accounting can return the victim's in-flight slot.
func testShedAwareOnShed(t *testing.T, keyed bool) {
	app := newTestApp(t, AppConfig{})
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	var out *OutPort
	_, err := app.NewImmortalComponent("SA", func(c *Component) error {
		smm := c.SMM()
		var aerr error
		out, aerr = AddOutPort(c, smm, OutPortConfig{Name: "out", Type: classedType, Dests: []string{"SA.in"}})
		if aerr != nil {
			return aerr
		}
		_, aerr = AddInPort(c, smm, InPortConfig{
			Name: "in", Type: classedType, BufferSize: 1,
			Threading: ThreadingDedicated, MinThreads: 1, MaxThreads: 1,
			Overflow: OverflowDropOldest, Fair: keyed,
			Handler: HandlerFunc(func(p *Proc, m Message) error {
				started <- struct{}{}
				<-block
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
	defer app.Stop()
	defer close(block)

	var shed atomic.Int32
	send := func() {
		m, err := out.GetMessage()
		if err != nil {
			t.Fatal(err)
		}
		m.(*classedMsg).onShed = func() { shed.Add(1) }
		if err := out.Send(m, sched.NormPriority); err != nil {
			t.Fatal(err)
		}
	}

	send() // pins the worker
	<-started
	send() // waits in the 1-slot buffer
	send() // evicts the waiter: its OnShed must fire
	if got := shed.Load(); got != 1 {
		t.Errorf("OnShed fired %d times after one eviction, want 1", got)
	}
}
