package orb

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/giop"
	"repro/internal/sched"
	"repro/internal/transport"
)

// TestReplicaFailoverAndReadd is the member-death story at the orb layer:
// with 3 replicas and a Resolve hook, killing one member must (a) keep every
// invocation succeeding, (b) never open any member's breaker — the dead
// connection is a clean close and the refused redial re-resolves the
// membership without a charge — and (c) once the member is restarted and
// Retarget runs, it must serve invocations again, counted at its servant.
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
		Addrs: addrs,
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

	// Kill m1. Its connection dies cleanly; the next invocation routed there
	// redials, is refused, re-resolves, and lands on a survivor.
	setLive("m0", "m2")
	victim.Close()
	for round := 0; round < 4; round++ {
		invokeSweep(fmt.Sprintf("kill%d", round))
	}
	for _, m := range members(cl) {
		if s := m.brk.State(); s != breakerClosed {
			t.Errorf("member %s breaker state = %d after member death, want closed", m.addr, s)
		}
	}
	if got := cl.Members(); len(got) != 2 || got[0] != "m0" || got[1] != "m2" {
		t.Errorf("members after the death = %v, want [m0 m2]", got)
	}

	// Restart m1 and re-add it: it gets a fresh slot, and the next sweeps
	// must put traffic on it.
	_, served := startCountingServer(t, net, "m1", ServerConfig{Concurrency: 8})
	setLive("m0", "m1", "m2")
	cl.Retarget(addrs)
	for round := 0; round < 4; round++ {
		invokeSweep(fmt.Sprintf("readd%d", round))
	}
	if served.Load() == 0 {
		t.Error("re-added member served no invocation")
	}
	for _, m := range members(cl) {
		if s := m.brk.State(); s != breakerClosed {
			t.Errorf("member %s breaker state = %d after re-add, want closed", m.addr, s)
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

// TestRetargetToCurrentMembershipIsNoop: a caller may hand Retarget the
// resolved membership on every refresh. While that is the current membership
// as a set, in any order, it stores nothing, bumps no route generation and
// leaves every member's connection where it is; a changed set keeps the slots
// — and connections — of the members it keeps.
func TestRetargetToCurrentMembershipIsNoop(t *testing.T) {
	net := transport.NewInproc()
	startEchoServer(t, net, "r0", ServerConfig{})
	startEchoServer(t, net, "r1", ServerConfig{})
	startEchoServer(t, net, "r2", ServerConfig{})
	cl := dial(t, net, "", ClientConfig{
		Addrs: []string{"r0", "r1"}, Collocate: true,
		Resilience: &ResilienceConfig{},
	})
	ms := members(cl)
	conns := make([]*muxConn, len(ms))
	for i, m := range ms {
		mc, err := m.conn()
		if err != nil {
			t.Fatalf("member %s: %v", m.addr, err)
		}
		conns[i] = mc
	}
	list, gen := cl.members.Load(), cl.routeGen.Load()

	for _, addrs := range [][]string{{"r0", "r1"}, {"r1", "r0"}, {"r1", "r0", "r1"}} {
		cl.Retarget(addrs)
		if got := cl.routeGen.Load(); got != gen {
			t.Errorf("Retarget(%v) moved the route generation %d -> %d", addrs, gen, got)
		}
		if cl.members.Load() != list {
			t.Errorf("Retarget(%v) stored the membership again: %v", addrs, cl.Members())
		}
		for i, m := range ms {
			if m.cur.Load() != conns[i] {
				t.Errorf("Retarget(%v) touched member %s's connection", addrs, m.addr)
			}
		}
	}

	// A new member is work: r1 keeps its slot and connection, r2 gets a
	// fresh slot, r0's connection retires.
	cl.Retarget([]string{"r1", "r2"})
	if cl.routeGen.Load() == gen {
		t.Error("a retarget that changed the membership did not bump the route generation")
	}
	next := members(cl)
	if len(next) != 2 || next[0] != ms[1] || next[1].addr != "r2" {
		t.Fatalf("members after the retarget = %v, want r1's slot then r2's", cl.Members())
	}
	if next[0].cur.Load() != conns[1] {
		t.Error("the kept member lost its connection")
	}
	if ms[0].live() {
		t.Error("the removed member's connection was not retired")
	}
}

// TestFailoverRefusedAlternateCountsNoRetarget: a member whose dial is
// refused while another survives is skipped, with no breaker charge, and the
// invocation tries the survivor; when that refuses too nobody survives, so its
// breaker is charged and its error surfaces. The membership the Resolve hook
// answered is the one the client had: nothing is stored, and the next
// Retarget that names the skipped member un-skips it.
func TestFailoverRefusedAlternateCountsNoRetarget(t *testing.T) {
	net := transport.NewInproc() // nobody listens: every dial is refused
	var resolves atomic.Int64
	cl := dial(t, net, "", ClientConfig{
		Addrs: []string{"gone0", "gone1"},
		Resolve: func() ([]string, error) {
			resolves.Add(1)
			return []string{"gone0", "gone1"}, nil
		},
		Resilience: &ResilienceConfig{},
	})
	list := cl.members.Load()
	ms := *list
	_, err := cl.Invoke("echo", "echo", nil, sched.NormPriority)
	if err == nil {
		t.Fatal("invocation succeeded with no listener")
	}
	skipped, charged := ms[0], ms[1]
	if !skipped.skip.Load() {
		skipped, charged = charged, skipped
	}
	if !skipped.skip.Load() || charged.skip.Load() {
		t.Fatalf("skip flags %v/%v, want exactly one member skipped", ms[0].skip.Load(), ms[1].skip.Load())
	}
	if got := skipped.brk.fails.Load(); got != 0 {
		t.Errorf("the skipped member's breaker was charged %d times", got)
	}
	if charged.brk.fails.Load() == 0 {
		t.Error("the last member's refused dial charged no breaker")
	}
	if resolves.Load() == 0 {
		t.Error("a refused dial did not consult the Resolve hook")
	}
	if cl.members.Load() != list {
		t.Errorf("a refused failover stored the membership again: %v", cl.Members())
	}
	cl.Retarget([]string{"gone1", "gone0"})
	if skipped.skip.Load() {
		t.Error("a Retarget naming the skipped member left it skipped")
	}
}
