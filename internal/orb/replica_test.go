package orb

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/giop"
	"repro/internal/sched"
	"repro/internal/transport"
)

// sentByAddr folds StripeStates into per-member sent counts.
func sentByAddr(cl *Client) map[string]int64 {
	out := make(map[string]int64)
	for _, ss := range cl.StripeStates() {
		out[ss.Addr] += ss.Sent
	}
	return out
}

// TestReplicaStripesSpreadMembers dials a 2-member replica set and demands
// both members carry traffic: stripes are assigned round-robin over Addrs,
// and P2C keeps idle bands drifting between them.
func TestReplicaStripesSpreadMembers(t *testing.T) {
	net := transport.NewInproc()
	startEchoServer(t, net, "r0", ServerConfig{Concurrency: 8})
	startEchoServer(t, net, "r1", ServerConfig{Concurrency: 8})
	cl := dial(t, net, "", ClientConfig{
		Addrs: []string{"r0", "r1"}, Channels: 4,
	})

	if len(cl.stripes) != 4 {
		t.Fatalf("Channels=4 built %d stripes", len(cl.stripes))
	}
	for i, st := range cl.stripes {
		want := []string{"r0", "r1"}[i%2]
		if got := st.target(); got != want {
			t.Errorf("stripe %d targets %q, want %q", i, got, want)
		}
	}
	for round := 0; round < 4; round++ {
		for p := sched.MinPriority; p <= sched.MaxPriority; p++ {
			payload := []byte(fmt.Sprintf("r%d-p%d", round, p))
			got, err := cl.Invoke("echo", "echo", payload, p)
			if err != nil {
				t.Fatalf("round %d prio %d: %v", round, p, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("round %d prio %d: got %q", round, p, got)
			}
		}
	}
	by := sentByAddr(cl)
	if by["r0"] == 0 || by["r1"] == 0 {
		t.Errorf("traffic split %v; both members should carry load", by)
	}
}

// TestReplicaFailoverAndReadd is the member-death story at the orb layer:
// with 3 replicas and a Resolve hook, killing one member must (a) keep every
// invocation succeeding, (b) never open any stripe's breaker — the dead
// connection is a clean close and the one failed redial is under threshold —
// and (c) once the member is restarted and Retarget runs, it must receive
// traffic again.
func TestReplicaFailoverAndReadd(t *testing.T) {
	net := transport.NewInproc()
	addrs := []string{"m0", "m1", "m2"}
	startEchoServer(t, net, "m0", ServerConfig{Concurrency: 8})
	victim := startEchoServer(t, net, "m1", ServerConfig{Concurrency: 8})
	startEchoServer(t, net, "m2", ServerConfig{Concurrency: 8})

	var mu sync.Mutex
	live := []string{"m0", "m1", "m2"}
	setLive := func(a ...string) { mu.Lock(); live = a; mu.Unlock() }

	cl := dial(t, net, "", ClientConfig{
		Addrs:    addrs,
		Channels: 3,
		Resolve: func() ([]string, error) {
			mu.Lock()
			defer mu.Unlock()
			return append([]string(nil), live...), nil
		},
		Resilience: &ResilienceConfig{BreakerThreshold: 5, MaxRetries: 3},
	})

	invokeSweep := func(tag string) {
		t.Helper()
		for p := sched.MinPriority; p <= sched.MaxPriority; p++ {
			payload := []byte(fmt.Sprintf("%s-p%d", tag, p))
			got, err := cl.InvokeIdempotent("echo", "echo", payload, p)
			if err != nil {
				t.Fatalf("%s prio %d: %v", tag, p, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("%s prio %d: got %q", tag, p, got)
			}
		}
	}
	invokeSweep("warmup")

	// Kill m1. Its stripe's connection dies cleanly; the next invocation
	// routed there redials, fails once, resolves, and lands on a survivor.
	setLive("m0", "m2")
	victim.Close()
	for round := 0; round < 4; round++ {
		invokeSweep(fmt.Sprintf("kill%d", round))
	}
	for i, st := range cl.stripes {
		if s := st.brk.State(); s != breakerClosed {
			t.Errorf("stripe %d breaker state = %d after member death, want closed", i, s)
		}
		if st.target() == "m1" {
			t.Errorf("stripe %d still targets the dead member", i)
		}
	}

	// Restart m1 and re-add it. Retarget reassigns stripes round-robin, so
	// some stripe targets m1 again; the next sweeps must put traffic on it.
	startEchoServer(t, net, "m1", ServerConfig{Concurrency: 8})
	setLive("m0", "m1", "m2")
	before := sentByAddr(cl)["m1"]
	cl.Retarget(addrs)
	for round := 0; round < 4; round++ {
		invokeSweep(fmt.Sprintf("readd%d", round))
	}
	if after := sentByAddr(cl)["m1"]; after <= before {
		t.Errorf("re-added member got no traffic (sent %d -> %d)", before, after)
	}
	for i, st := range cl.stripes {
		if s := st.brk.State(); s != breakerClosed {
			t.Errorf("stripe %d breaker state = %d after re-add, want closed", i, s)
		}
	}
}

// TestServerLocateForward installs a forwarder on a server with no matching
// servant and demands the Locate probe comes back OBJECT_FORWARD with the
// group's addresses, while a locally-served key still answers OBJECT_HERE, a
// key nobody serves UNKNOWN_OBJECT, and the same server still answers an
// invocation afterwards.
func TestServerLocateForward(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	srv.SetLocateForwarder(func(key []byte) []string {
		if string(key) == "group/echo" {
			return []string{"m0", "m1", "m2"}
		}
		return nil
	})
	conn := rawDial(t, net, srv.Addr())

	rep := rawLocate(t, conn, 1, "group/echo")
	if rep.Status != giop.LocateObjectForward {
		t.Errorf("forwarded key: status %v, want OBJECT_FORWARD", rep.Status)
	}
	if fwd := rep.Forward; len(fwd) != 3 || fwd[0] != "m0" || fwd[1] != "m1" || fwd[2] != "m2" {
		t.Errorf("forward list = %v, want [m0 m1 m2]", fwd)
	}

	if rep := rawLocate(t, conn, 2, "echo"); rep.Status != giop.LocateObjectHere || rep.Forward != nil {
		t.Errorf("local key: status %v, forward %v; want OBJECT_HERE and no forward", rep.Status, rep.Forward)
	}
	if rep := rawLocate(t, conn, 3, "nowhere"); rep.Status != giop.LocateUnknownObject || rep.Forward != nil {
		t.Errorf("unknown key: status %v, forward %v; want UNKNOWN_OBJECT and no forward", rep.Status, rep.Forward)
	}

	cl := dial(t, net, srv.Addr(), ClientConfig{})
	if out, err := cl.Invoke("echo", "echo", []byte("after"), sched.NormPriority); err != nil || string(out) != "after" {
		t.Errorf("invoke after the probes = (%q, %v)", out, err)
	}
}

// TestRetargetToCurrentMembershipIsNoop: Retarget owns the stripe-assignment
// rule, so a caller may hand it the resolved membership on every refresh.
// While that is the current membership as a set and every stripe targets its
// round-robin share, it stores nothing, bumps no route generation and leaves
// every stripe's connection where it is.
func TestRetargetToCurrentMembershipIsNoop(t *testing.T) {
	net := transport.NewInproc()
	startEchoServer(t, net, "r0", ServerConfig{})
	startEchoServer(t, net, "r1", ServerConfig{})
	cl := dial(t, net, "", ClientConfig{
		Addrs: []string{"r0", "r1"}, Channels: 4, Collocate: true,
		Resilience: &ResilienceConfig{},
	})
	conns := make([]*muxConn, len(cl.stripes))
	for i, st := range cl.stripes {
		mc, err := st.conn()
		if err != nil {
			t.Fatalf("stripe %d: %v", i, err)
		}
		conns[i] = mc
	}
	members, gen := cl.Members(), cl.routeGen.Load()

	for _, addrs := range [][]string{{"r0", "r1"}, {"r1", "r0"}} {
		cl.Retarget(addrs)
		if got := cl.routeGen.Load(); got != gen {
			t.Errorf("Retarget(%v) moved the route generation %d -> %d", addrs, gen, got)
		}
		if got := cl.Members(); &got[0] != &members[0] {
			t.Errorf("Retarget(%v) stored the membership again: %v", addrs, got)
		}
		for i, st := range cl.stripes {
			if st.cur.Load() != conns[i] || st.target() != members[i%2] {
				t.Errorf("Retarget(%v) touched stripe %d (target %q)", addrs, i, st.target())
			}
		}
	}

	// A stripe off its share is work for the same membership.
	cl.stripes[1].setTarget("r0")
	cl.Retarget([]string{"r0", "r1"})
	if got := cl.stripes[1].target(); got != "r1" {
		t.Errorf("stripe 1 targets %q after the retarget, want its share r1", got)
	}
	if cl.routeGen.Load() == gen {
		t.Error("a retarget that moved a stripe did not bump the route generation")
	}
}

// TestFailoverRefusedAlternateCountsNoRetarget: a stripe whose member
// refuses the dial tries one alternate; when that refuses too the stripe
// keeps its target, and stripe_retarget_total must not count a move that
// did not happen.
func TestFailoverRefusedAlternateCountsNoRetarget(t *testing.T) {
	net := transport.NewInproc() // nobody listens: every dial is refused
	cl := dial(t, net, "", ClientConfig{
		Addrs:      []string{"gone0", "gone1"},
		Resolve:    func() ([]string, error) { return []string{"gone0", "gone1"}, nil },
		Resilience: &ResilienceConfig{},
	})
	st := cl.stripes[0]
	before := stripeRetargetTotal.Value()
	if _, err := st.conn(); err == nil {
		t.Fatal("dial succeeded with no listener")
	}
	if got := st.target(); got != "gone0" {
		t.Errorf("stripe moved to %q on a refused failover, want it on gone0", got)
	}
	if got := stripeRetargetTotal.Value(); got != before {
		t.Errorf("stripe_retarget_total = %d after a refused failover, want %d", got, before)
	}
}
