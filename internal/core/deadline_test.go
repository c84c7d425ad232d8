package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// missEvents returns a reader of the EvDeadlineMiss events the flight
// recorder holds for label, counting only those recorded after the call.
func missEvents(label string) func() []telemetry.Event {
	ring := telemetry.Default.Ring()
	from := ring.Len()
	return func() []telemetry.Event {
		var out []telemetry.Event
		for _, ev := range ring.Snapshot() {
			if ev.Seq > from && ev.Kind == telemetry.EvDeadlineMiss && ev.Label == label {
				out = append(out, ev)
			}
		}
		return out
	}
}

// TestDeadlineMissSynchronousDispatch drives the pool-size-0 path: the
// handler runs inline on the sender, and a 1ns deadline has always lapsed by
// the time dispatch checks it.
func TestDeadlineMissSynchronousDispatch(t *testing.T) {
	telemetry.Verbose(true)
	defer telemetry.Verbose(false)
	misses := missEvents("SyncDL.in")
	app := newTestApp(t, AppConfig{})
	done := make(chan struct{}, 1)

	comp, err := app.NewImmortalComponent("SyncDL", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddInPort(c, smm, InPortConfig{
			Name: "in", Type: intType, Threading: ThreadingSynchronous,
			Handler: HandlerFunc(func(p *Proc, m Message) error {
				done <- struct{}{}
				return nil
			}),
		}); err != nil {
			return err
		}
		_, err := AddOutPort(c, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"SyncDL.in"}})
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
	out.SetSendDeadline(time.Nanosecond)

	before := telemetry.DeadlineMisses()
	m, err := out.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Send(m, sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	<-done // synchronous: already delivered, but drain for symmetry

	if telemetry.DeadlineMisses() != before+1 {
		t.Errorf("global misses = %d, want %d", telemetry.DeadlineMisses(), before+1)
	}
	ms := misses()
	if len(ms) != 1 {
		t.Fatalf("miss events = %+v", ms)
	}
	if ms[0].Arg == 0 {
		t.Errorf("lateness = %d, want > 0", ms[0].Arg)
	}

	// The flight recorder holds the send/dispatch pair too, the dispatch at
	// the message's priority.
	var sawSend, sawDispatch bool
	for _, ev := range telemetry.Default.Ring().Snapshot() {
		switch {
		case ev.Kind == telemetry.EvSend && ev.Label == "SyncDL.out":
			sawSend = true
		case ev.Kind == telemetry.EvDispatch && ev.Label == "SyncDL.in" && ev.Arg == uint64(sched.NormPriority):
			sawDispatch = true
		}
	}
	if !sawSend || !sawDispatch {
		t.Errorf("ring events: send=%v dispatch=%v, want both", sawSend, sawDispatch)
	}

	// An on-time send must not add a miss.
	out.SetSendDeadline(time.Hour)
	m2, err := out.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Send(m2, sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	<-done
	if telemetry.DeadlineMisses() != before+1 {
		t.Errorf("on-time send was counted as a miss")
	}
}

// TestDeadlineMissAsyncDispatch drives the pooled path: the port's single
// worker is pinned by the first message, so the second waits in the buffer
// past its deadline and the miss is detected when its dispatch finally runs.
func TestDeadlineMissAsyncDispatch(t *testing.T) {
	misses := missEvents("AsyncDL.in")
	app := newTestApp(t, AppConfig{})
	gate := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{}, 2)
	first := true

	comp, err := app.NewImmortalComponent("AsyncDL", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddInPort(c, smm, InPortConfig{
			Name: "in", Type: intType, Threading: ThreadingDedicated,
			MinThreads: 1, MaxThreads: 1,
			Handler: HandlerFunc(func(p *Proc, m Message) error {
				if first {
					first = false
					close(started)
					<-gate
				}
				done <- struct{}{}
				return nil
			}),
		}); err != nil {
			return err
		}
		_, err := AddOutPort(c, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"AsyncDL.in"}})
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

	// First message pins the worker (no deadline).
	m1, err := out.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Send(m1, sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	<-started

	// Second message has 10ms to start; the worker stays pinned for 30ms.
	out.SetSendDeadline(10 * time.Millisecond)
	m2, err := out.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Send(m2, sched.MaxPriority); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	close(gate)
	<-done
	<-done

	ms := misses()
	if len(ms) != 1 {
		t.Fatalf("miss events = %+v", ms)
	}
	if late := time.Duration(ms[0].Arg); late < 10*time.Millisecond {
		t.Errorf("lateness = %v, want >= 10ms", late)
	}
}

// TestDeadlineShedAtDequeue pins the accounting fix for work shed at
// dequeue: a ShedExpired port drops a message whose deadline already passed
// WITHOUT running the handler, counts it as deadline_shed_total (not
// deadline_miss_total), fires the message's OnShed hook, records no
// EvDeadlineMiss — a shed is not a late execution — and leaves the owner's
// pending count and the message pool at rest.
func TestDeadlineShedAtDequeue(t *testing.T) {
	misses := missEvents("ShedDL.in")
	app := newTestApp(t, AppConfig{})
	gate := make(chan struct{})
	started := make(chan struct{})
	handled := make(chan int, 4)
	first := true

	comp, err := app.NewImmortalComponent("ShedDL", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddInPort(c, smm, InPortConfig{
			Name: "in", Type: classedType, Threading: ThreadingDedicated,
			MinThreads: 1, MaxThreads: 1,
			ShedExpired: true,
			Handler: HandlerFunc(func(p *Proc, m Message) error {
				if first {
					first = false
					close(started)
					<-gate
				}
				handled <- m.(*classedMsg).v
				return nil
			}),
		}); err != nil {
			return err
		}
		_, err := AddOutPort(c, smm, OutPortConfig{Name: "out", Type: classedType, Dests: []string{"ShedDL.in"}})
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
	in := comp.SMM().inPort("ShedDL.in")

	// First message pins the worker (no deadline).
	m1, err := out.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	m1.(*classedMsg).v = 1
	if err := out.Send(m1, sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	<-started

	// Second message gets 5ms; the worker stays pinned for 30ms, so it is
	// already dead when its dispatch finally pops it.
	shedsBefore := telemetry.DeadlineSheds()
	missesBefore := telemetry.DeadlineMisses()
	bandBefore := shedBandCounter(sched.MaxPriority).Value()
	var onShed atomic.Int32
	out.SetSendDeadline(5 * time.Millisecond)
	m2, err := out.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	m2.(*classedMsg).v = 2
	m2.(*classedMsg).onShed = func() { onShed.Add(1) }
	if err := out.Send(m2, sched.MaxPriority); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	close(gate)

	if v := <-handled; v != 1 {
		t.Fatalf("first handled message = %d, want 1", v)
	}
	// The dead message must never reach the handler.
	select {
	case v := <-handled:
		t.Fatalf("expired message %d was executed, want shed at dequeue", v)
	case <-time.After(50 * time.Millisecond):
	}

	if got := telemetry.DeadlineSheds(); got != shedsBefore+1 {
		t.Errorf("deadline_shed_total = %d, want %d", got, shedsBefore+1)
	}
	if got := telemetry.DeadlineMisses(); got != missesBefore {
		t.Errorf("deadline_miss_total moved to %d (was %d): a shed is not a miss", got, missesBefore)
	}
	if got := len(misses()); got != 0 {
		t.Errorf("%d EvDeadlineMiss events for shed work, want 0", got)
	}
	if got := onShed.Load(); got != 1 {
		t.Errorf("OnShed fired %d times, want 1", got)
	}
	// Port bookkeeping: the shed counts as dropped+shed, not processed.
	received, processed, dropped := in.Stats()
	if received != 2 || processed != 1 || dropped != 1 {
		t.Errorf("stats = (recv %d, proc %d, drop %d), want (2, 1, 1)", received, processed, dropped)
	}
	if in.Shed() != 1 {
		t.Errorf("port shed = %d, want 1", in.Shed())
	}
	// Attribution: the expired shed landed in its band's counter.
	// (MaxPriority band; other tests do not shed expired work there.)
	if got := shedBandCounter(sched.MaxPriority).Value(); got != bandBefore+1 {
		t.Errorf("shed_expired_band_31_total = %d, want %d", got, bandBefore+1)
	}
	// The drop released what the send reserved: once the owner holds no
	// pending delivery, both messages are back in the pool.
	if !comp.changed.Wait(func() bool { return comp.life.Load()&pendingMask == 0 }, time.Now().Add(5*time.Second)) {
		t.Fatalf("owner still holds %d pending deliveries after the shed", comp.life.Load()&pendingMask)
	}
	if _, inFlight := msgPoolStats(comp.SMM(), classedType.Name); inFlight != 0 {
		t.Errorf("message pool: %d in flight after the shed, want none", inFlight)
	}
	app.Stop()
}

// TestDeadlineMissStillExecutesWithoutShedExpired pins the default: without
// ShedExpired, a late message is counted as a miss and still processed.
func TestDeadlineMissStillExecutesWithoutShedExpired(t *testing.T) {
	misses := missEvents("LateDL.in")
	app := newTestApp(t, AppConfig{})
	handled := make(chan struct{}, 1)

	comp, err := app.NewImmortalComponent("LateDL", func(c *Component) error {
		smm := c.SMM()
		if _, err := AddInPort(c, smm, InPortConfig{
			Name: "in", Type: intType, Threading: ThreadingSynchronous,
			Handler: HandlerFunc(func(p *Proc, m Message) error {
				handled <- struct{}{}
				return nil
			}),
		}); err != nil {
			return err
		}
		_, err := AddOutPort(c, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"LateDL.in"}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()

	out, err := comp.SMM().GetOutPort("out")
	if err != nil {
		t.Fatal(err)
	}
	out.SetSendDeadline(time.Nanosecond)
	shedsBefore := telemetry.DeadlineSheds()
	m, err := out.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Send(m, sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	<-handled // late, but executed
	if got := len(misses()); got != 1 {
		t.Errorf("%d EvDeadlineMiss events, want 1", got)
	}
	if got := telemetry.DeadlineSheds(); got != shedsBefore {
		t.Errorf("deadline_shed_total moved without ShedExpired")
	}
}
