package orb

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corba"
	"repro/internal/memory"
	"repro/internal/overload"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// probeServant echoes its input and records what the server showed it: the
// priority byte, and the server's and the controller's in-flight counts while
// it ran. It is a PrioritizedServant, so the priority it sees is the one the
// pipeline propagates.
type probeServant struct {
	srv  *Server
	ctrl *overload.Controller

	calls        atomic.Int64
	prio         atomic.Int64
	srvInflight  atomic.Int64
	ctrlInflight atomic.Int64
}

func (p *probeServant) Invoke(op string, in []byte) ([]byte, error) {
	return p.InvokeWithPriority(op, in, 0xff)
}

func (p *probeServant) InvokeWithPriority(op string, in []byte, prio byte) ([]byte, error) {
	p.prio.Store(int64(prio))
	p.srvInflight.Store(p.srv.Inflight())
	p.ctrlInflight.Store(p.ctrl.Inflight())
	p.calls.Add(1)
	return in, nil
}

// eventually polls cond for up to two seconds: the wire's server side
// finishes a request (span end, slot release, message recycle) on its own
// goroutine, racing the caller's return — or, for a oneway, never
// synchronised with it at all.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("never held: %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// deadlineShedTotal is the process-wide deadline_shed_total counter that
// telemetry.ReportDeadlineShed counts on.
var deadlineShedTotal = telemetry.Default.Counter("deadline_shed_total")

// deadlineShedEvents counts the EvDeadlineShed events recorded after ring
// position from.
func deadlineShedEvents(from uint64) int {
	n := 0
	for _, ev := range telemetry.Default.Ring().Snapshot() {
		if ev.Seq > from && ev.Kind == telemetry.EvDeadlineShed {
			n++
		}
	}
	return n
}

// spanCounts tallies the client and server span events recorded under trace.
func spanCounts(trace uint64) (clientStart, clientEnd, serverStart, serverEnd int) {
	for _, ev := range telemetry.Default.Ring().TraceEvents(trace) {
		switch {
		case ev.Label == "orb.client.invoke" && ev.Kind == telemetry.EvSpanStart:
			clientStart++
		case ev.Label == "orb.client.invoke" && ev.Kind == telemetry.EvSpanEnd:
			clientEnd++
		case ev.Label == "orb.server.request" && ev.Kind == telemetry.EvSpanStart:
			serverStart++
		case ev.Label == "orb.server.request" && ev.Kind == telemetry.EvSpanEnd:
			serverEnd++
		}
	}
	return
}

// TestInvokeConformance pins that an invocation means the same thing whichever
// transport carries it and whichever entry point made it: for every scenario
// the caller-visible outcome, what the overload controller was told (one
// completion, one Dropped or one admission shed per call — never two, never
// none), the server's in-flight count afterwards, and the spans of a traced
// call are asserted identically over the inproc wire, the TCP wire, the
// inproc wire to a Synchronous server (requests run on its reading thread)
// and the direct (collocated) transport. A oneway reports nothing to its
// caller on any of them; everything else about it is the same. A request past
// its queueing deadline is one deadline shed — one deadline_shed_total and
// one EvDeadlineShed — whichever transport carried it, and no other request
// is one. The "sampled" row runs once the controller times only some
// admissions: the server must still keep every one's queueing deadline.
func TestInvokeConformance(t *testing.T) {
	type outcome int
	const (
		wantEcho    outcome = iota // reply equals the payload
		wantNoKey                  // system exception, not a shed
		wantUserErr                // user exception
		wantShed                   // *ShedError with a positive retry-after
	)
	// fate is which controller count one call must move by exactly one.
	type fate int
	const (
		fateDone fate = iota
		fateDropped
		fateShed
	)
	scenarios := []struct {
		name     string
		key      string
		prio     sched.Priority
		deadline time.Duration // ServerConfig.RequestDeadline
		holdSlot bool          // occupy the controller's only slot first
		sampled  bool          // drive the controller past its sampling threshold first
		traced   bool
		want     outcome
		fate     fate
	}{
		{name: "ok", key: "probe", prio: sched.NormPriority, want: wantEcho, fate: fateDone},
		{name: "unknown key", key: "ghost", prio: sched.NormPriority, want: wantNoKey, fate: fateDone},
		{name: "servant error", key: "fail", prio: sched.NormPriority, want: wantUserErr, fate: fateDone},
		{name: "retiring key", key: "retired", prio: sched.NormPriority, want: wantShed, fate: fateDropped},
		{name: "admission shed", key: "probe", prio: sched.NormPriority, holdSlot: true, want: wantShed, fate: fateShed},
		{name: "queueing deadline passed", key: "probe", prio: sched.NormPriority, deadline: time.Nanosecond, want: wantShed, fate: fateDropped},
		{name: "queueing deadline passed, sampled", key: "probe", prio: sched.NormPriority, deadline: time.Nanosecond, sampled: true, want: wantShed, fate: fateDropped},
		{name: "priority 0", key: "probe", prio: 0, want: wantEcho, fate: fateDone},
		{name: "priority 40", key: "probe", prio: 40, want: wantEcho, fate: fateDone},
		{name: "traced", key: "probe", prio: sched.NormPriority, traced: true, want: wantEcho, fate: fateDone},
	}
	transports := []struct {
		name        string
		net         func() transport.Network
		addr        string
		synchronous bool
		collocate   bool
	}{
		{"inproc wire", func() transport.Network { return transport.NewInproc() }, "", false, false},
		{"tcp wire", func() transport.Network { return transport.TCP{} }, "127.0.0.1:0", false, false},
		{"synchronous wire", func() transport.Network { return transport.NewInproc() }, "", true, false},
		{"collocated", func() transport.Network { return transport.NewInproc() }, "", false, true},
	}
	entries := []struct {
		name   string
		oneway bool
		call   func(cl *Client, key string, payload []byte, prio sched.Priority) ([]byte, error)
	}{
		{"Invoke", false, func(cl *Client, key string, payload []byte, prio sched.Priority) ([]byte, error) {
			return cl.Invoke(key, "op", payload, prio)
		}},
		{"InvokeView", false, func(cl *Client, key string, payload []byte, prio sched.Priority) (out []byte, err error) {
			err = cl.InvokeView(key, "op", payload, prio, func(reply memory.Loan) error {
				b, berr := reply.Bytes()
				out = append([]byte{}, b...)
				return berr
			})
			return out, err
		}},
		{"InvokeIdempotent", false, func(cl *Client, key string, payload []byte, prio sched.Priority) ([]byte, error) {
			return cl.InvokeIdempotent(key, "op", payload, prio)
		}},
		{"InvokeOneway", true, func(cl *Client, key string, payload []byte, prio sched.Priority) ([]byte, error) {
			return nil, cl.InvokeOneway(key, "op", payload, prio)
		}},
	}

	for _, tr := range transports {
		for _, sc := range scenarios {
			t.Run(tr.name+"/"+sc.name, func(t *testing.T) {
				// An hour-long control window: the controller never steps, so
				// its window counts are cumulative for the test. Nothing sleeps
				// on the matching retry-after hint — the client has no
				// resilience, so every entry point makes exactly one attempt.
				ctrl := overload.NewController(overload.Config{Window: time.Hour, MinLimit: 1, MaxLimit: 1})
				defer ctrl.Close()
				srv := startEchoServer(t, tr.net(), tr.addr, ServerConfig{
					Overload: ctrl, RequestDeadline: sc.deadline, Synchronous: tr.synchronous,
				})
				probe := &probeServant{srv: srv, ctrl: ctrl}
				srv.RegisterServant("probe", probe)
				srv.RegisterServant("fail", corba.ServantFunc(func(string, []byte) ([]byte, error) {
					return nil, fmt.Errorf("boom")
				}))
				srv.RegisterServant("retired", corba.EchoServant{})
				srv.UnregisterServant("retired")
				cl := dial(t, srv.net, srv.Addr(), ClientConfig{
					Collocate: tr.collocate,
					Tenant:    overload.Tenant{ID: 7, Tier: overload.Tier1},
				})
				if sc.traced {
					telemetry.Verbose(true)
					defer telemetry.Verbose(false)
				}
				if sc.sampled {
					// A window of 2^16 arrivals: the controller now times
					// one in 2^6, and the deadline must hold for the rest.
					for i := 0; i < 1<<16; i++ {
						ctrl.Admit(0, overload.Tier0, sched.NormPriority)
						ctrl.Completed()
					}
					ctrl.Tick()
				}
				if sc.holdSlot {
					if !ctrl.Admit(1, overload.Tier0, sched.NormPriority).OK {
						t.Fatal("could not occupy the controller's slot")
					}
					defer ctrl.Dropped()
				}
				held := ctrl.Inflight()

				for _, ep := range entries {
					done0, dropped0, shed0 := ctrl.Counts()
					calls0 := probe.calls.Load()
					direct0 := collocatedInvokeTotal.Value()
					sheds0, ring0 := deadlineShedTotal.Value(), telemetry.Default.Ring().Len()
					payload := []byte(ep.name + " over " + tr.name)

					out, err := ep.call(cl, sc.key, payload, sc.prio)

					// Caller-visible outcome.
					var shedErr *ShedError
					switch {
					case ep.oneway:
						if err != nil {
							t.Errorf("%s: oneway surfaced %v; a oneway reports nothing", ep.name, err)
						}
					case sc.want == wantEcho:
						if err != nil || string(out) != string(payload) {
							t.Errorf("%s = (%q, %v), want echo", ep.name, out, err)
						}
					case sc.want == wantNoKey:
						if !errors.Is(err, corba.ErrSystemException) || errors.Is(err, ErrShed) {
							t.Errorf("%s = %v, want a plain system exception", ep.name, err)
						}
					case sc.want == wantUserErr:
						if !errors.Is(err, corba.ErrUserException) {
							t.Errorf("%s = %v, want a user exception", ep.name, err)
						}
					case sc.want == wantShed:
						if !errors.As(err, &shedErr) || shedErr.RetryAfter <= 0 || shedErr.Detail != string(shedReplyPayload) {
							t.Errorf("%s = %v, want a *ShedError with a retry-after hint", ep.name, err)
						}
						if !errors.Is(err, ErrShed) || !errors.Is(err, corba.ErrSystemException) {
							t.Errorf("%s: shed error %v lost its Is() identities", ep.name, err)
						}
					}

					// What the controller was told: exactly one of the three.
					want := [3]int64{}
					want[sc.fate] = 1
					eventually(t, fmt.Sprintf("%s: controller counts done/dropped/shed move by %v", ep.name, want), func() bool {
						done, dropped, shed := ctrl.Counts()
						return [3]int64{done - done0, dropped - dropped0, shed - shed0} == want
					})
					eventually(t, ep.name+": slots and in-flight counts drain", func() bool {
						return ctrl.Inflight() == held && srv.Inflight() == 0 && cl.Inflight() == 0
					})

					// A queueing deadline is kept in one place, and a shed
					// counted the same on every transport.
					wantSheds := 0
					if sc.deadline > 0 {
						wantSheds = 1
					}
					if got := deadlineShedTotal.Value() - sheds0; got != int64(wantSheds) {
						t.Errorf("%s: deadline_shed_total moved by %d, want %d", ep.name, got, wantSheds)
					}
					if got := deadlineShedEvents(ring0); got != wantSheds {
						t.Errorf("%s: %d EvDeadlineShed events, want %d", ep.name, got, wantSheds)
					}

					// Which transport carried it.
					wantDirect := int64(0)
					if tr.collocate {
						wantDirect = 1
					}
					if got := collocatedInvokeTotal.Value() - direct0; got != wantDirect {
						t.Errorf("%s: collocated_invoke_total moved by %d, want %d", ep.name, got, wantDirect)
					}

					// What the servant was shown, when it ran.
					if sc.want == wantEcho {
						if got := probe.calls.Load() - calls0; got != 1 {
							t.Errorf("%s: servant ran %d times, want 1", ep.name, got)
						}
						if got := probe.prio.Load(); got != int64(byte(sc.prio)) {
							t.Errorf("%s: servant saw priority %d, want the byte as sent (%d)", ep.name, got, byte(sc.prio))
						}
						if s, c := probe.srvInflight.Load(), probe.ctrlInflight.Load(); s != 1 || c != held+1 {
							t.Errorf("%s: in-flight while the servant ran: server %d controller %d, want 1 and %d", ep.name, s, c, held+1)
						}
					} else if got := probe.calls.Load() - calls0; got != 0 {
						t.Errorf("%s: servant ran %d times for a request that must not reach it", ep.name, got)
					}

					if sc.traced {
						var trace uint64
						for _, ev := range telemetry.Default.Ring().Snapshot() {
							if ev.Kind == telemetry.EvSpanStart && ev.Label == "orb.client.invoke" {
								trace = ev.Trace // oldest→newest: keep this call's
							}
						}
						eventually(t, ep.name+": one client span and one server span under the call's trace", func() bool {
							cs, ce, ss, se := spanCounts(trace)
							return trace != 0 && cs == 1 && ce == 1 && ss == 1 && se == 1
						})
					}
				}
			})
		}
	}
}
