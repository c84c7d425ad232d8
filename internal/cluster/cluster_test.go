package cluster

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corba"
	"repro/internal/orb"
	"repro/internal/remote"
	"repro/internal/sched"
	"repro/internal/transport"
)

// testGroup is the group key the test replicas serve, using the remote-port
// convention the deployment layer follows.
var testGroup = remote.PortKey("Echo.In")

// startReplica runs an orb server at addr serving the test group's echo
// servant — one member of the replica group. The servant counts the
// invocations it answers (served).
func startReplica(t *testing.T, net transport.Network, addr string) *orb.Server {
	t.Helper()
	srv, err := orb.NewServer(orb.ServerConfig{Network: net, Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	n := new(atomic.Int64)
	srv.RegisterServant(testGroup, corba.ServantFunc(func(op string, in []byte) ([]byte, error) {
		n.Add(1)
		return corba.EchoServant{}.Invoke(op, in)
	}))
	srv.ServeBackground()
	t.Cleanup(srv.Close)
	testServers.Store(addr, srv)
	testServed.Store(addr, n)
	return srv
}

// testServers tracks started replicas by address: inproc networks have no
// process handles, so tests that kill a replica look its server up here.
// testServed holds the invocation count of the replica last started at each
// address.
var testServers, testServed sync.Map // addr -> *orb.Server, *atomic.Int64

// served reports how many invocations the replica last started at addr has
// answered.
func served(addr string) int64 {
	n, ok := testServed.Load(addr)
	if !ok {
		return 0
	}
	return n.(*atomic.Int64).Load()
}

// isMember reports whether the client currently spreads over addr.
func isMember(c *Client, addr string) bool {
	return slices.Contains(c.Members(), addr)
}

func serverAt(t *testing.T, addr string) *orb.Server {
	t.Helper()
	v, ok := testServers.Load(addr)
	if !ok {
		t.Fatalf("no test server registered at %q", addr)
	}
	return v.(*orb.Server)
}

// startDirectory runs a directory endpoint preloaded with members.
func startDirectory(t *testing.T, net transport.Network, addr string, members ...string) (*Directory, *orb.Server) {
	t.Helper()
	srv, err := orb.NewServer(orb.ServerConfig{Network: net, Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	dir := NewDirectory()
	dir.Set(testGroup, members...)
	dir.Attach(srv)
	srv.ServeBackground()
	t.Cleanup(srv.Close)
	return dir, srv
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestClusterDirectory(t *testing.T) {
	d := NewDirectory()
	if got := d.Members("g"); len(got) != 0 {
		t.Errorf("empty directory members = %v", got)
	}
	d.Set("g", "a", "b")
	d.Add("g", "c")
	d.Add("g", "b") // duplicate: no-op
	if got := d.Members("g"); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("members = %v, want [a b c]", got)
	}
	d.Remove("g", "b")
	d.Remove("g", "nope") // absent: no-op
	if got := d.Members("g"); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("members after remove = %v, want [a c]", got)
	}
	d.Set("h", "x")
	if got := d.Members("h"); len(d.groups) != 2 || len(got) != 1 || got[0] != "x" {
		t.Errorf("%d groups, h = %v; want 2 groups, h = [x]", len(d.groups), got)
	}

	fwd := d.Forwarder()
	if got := fwd([]byte("nope")); got != nil {
		t.Errorf("forwarder(unknown) = %v, want nil", got)
	}
	got := fwd([]byte("g"))
	if len(got) != 2 {
		t.Fatalf("forwarder(g) = %v", got)
	}
	got[0] = "mutated"
	if d.Members("g")[0] != "a" {
		t.Error("forwarder returned the directory's own slice")
	}
}

func TestClusterResolve(t *testing.T) {
	net := transport.NewInproc()
	_, dsrv := startDirectory(t, net, "dir", "m0", "m1", "m2")

	members, err := Resolve(net, dsrv.Addr(), testGroup)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 3 || members[0] != "m0" || members[2] != "m2" {
		t.Errorf("resolved members = %v", members)
	}

	// A servant hosted on the probed endpoint itself answers Here and
	// resolves to the endpoint's own address.
	rep := startReplica(t, net, "solo")
	if members, err = Resolve(net, rep.Addr(), testGroup); err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 || members[0] != "solo" {
		t.Errorf("co-hosted resolve = %v, want [solo]", members)
	}

	// Unknown group: the directory answers Unknown.
	if _, err = Resolve(net, dsrv.Addr(), "port:Nope.In"); !errors.Is(err, ErrUnknownGroup) {
		t.Errorf("unknown group err = %v, want ErrUnknownGroup", err)
	}

	// Unreachable directory.
	if _, err = Resolve(net, "nowhere", testGroup); err == nil {
		t.Error("resolve against no listener succeeded")
	}
}

func TestClusterDialErrors(t *testing.T) {
	net := transport.NewInproc()
	if _, err := Dial(ClientConfig{Directory: "d", Group: "g"}); err == nil {
		t.Error("dial without network succeeded")
	}
	if _, err := Dial(ClientConfig{Network: net, Group: "g"}); err == nil {
		t.Error("dial without directory succeeded")
	}
	if _, err := Dial(ClientConfig{Network: net, Directory: "nowhere", Group: "g"}); err == nil {
		t.Error("dial against no directory succeeded")
	}

	_, dsrv := startDirectory(t, net, "dir") // group registered but empty
	if _, err := Dial(ClientConfig{Network: net, Directory: dsrv.Addr(), Group: testGroup}); err == nil {
		t.Error("dial against empty group succeeded")
	}
}

func TestClusterInvokeSpreadsMembers(t *testing.T) {
	net := transport.NewInproc()
	for _, addr := range []string{"m0", "m1", "m2"} {
		startReplica(t, net, addr)
	}
	_, dsrv := startDirectory(t, net, "dir", "m0", "m1", "m2")

	c, err := Dial(ClientConfig{Network: net, Directory: dsrv.Addr(), Group: testGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.group != testGroup {
		t.Errorf("group = %q", c.group)
	}

	payload := []byte("spread me")
	for i := 0; i < 96; i++ {
		prio := sched.MinPriority + sched.Priority(i%31)
		got, err := c.Invoke(testGroup, "echo", payload, prio)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("echo = %q", got)
		}
	}
	if got := c.Members(); len(got) != 3 {
		t.Errorf("members = %v, want the directory's three", got)
	}
	for _, m := range []string{"m0", "m1", "m2"} {
		if served(m) == 0 {
			t.Errorf("member %s received no traffic", m)
		}
	}
}

// TestClusterFailoverSoak is the acceptance soak: three replicas under
// sustained concurrent load, one killed mid-flight. At least 99% of
// invocations must succeed, the breaker must never open, and after the
// member is re-added it must demonstrably receive traffic again.
func TestClusterFailoverSoak(t *testing.T) {
	net := transport.NewInproc()
	for _, addr := range []string{"m0", "m1", "m2"} {
		startReplica(t, net, addr)
	}
	dir, dsrv := startDirectory(t, net, "dir", "m0", "m1", "m2")

	c, err := Dial(ClientConfig{Network: net, Directory: dsrv.Addr(), Group: testGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 8
	var (
		ok, failed, breakerTrips atomic.Int64
		stop                     atomic.Bool
		wg                       sync.WaitGroup
	)
	payload := bytes.Repeat([]byte("x"), 64)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prio := sched.MinPriority + sched.Priority(w%31)
			for !stop.Load() {
				_, err := c.InvokeIdempotent(testGroup, "echo", payload, prio)
				if err == nil {
					ok.Add(1)
					continue
				}
				failed.Add(1)
				if errors.Is(err, orb.ErrCircuitOpen) {
					breakerTrips.Add(1)
				}
			}
		}(w)
	}

	// Let the load establish, then kill m1: membership first (so a refused
	// dial resolves to the survivors), then the process.
	waitFor(t, "warm-up traffic", func() bool { return ok.Load() > 200 })
	dir.Remove(testGroup, "m1")
	serverAt(t, "m1").Close()

	// Soak through the failover window, then re-add the member and confirm
	// it heals back into rotation via the manual refresh path.
	waitFor(t, "post-kill traffic", func() bool { return ok.Load() > 2000 })
	startReplica(t, net, "m1")
	dir.Add(testGroup, "m1")
	if err := c.Refresh(); err != nil {
		t.Fatalf("refresh after re-add: %v", err)
	}
	waitFor(t, "re-added member traffic", func() bool { return served("m1") > 0 })

	stop.Store(true)
	wg.Wait()

	total := ok.Load() + failed.Load()
	if trips := breakerTrips.Load(); trips != 0 {
		t.Errorf("breaker opened %d times during failover", trips)
	}
	if rate := float64(ok.Load()) / float64(total); rate < 0.99 {
		t.Errorf("success rate %.4f (%d/%d), want >= 0.99", rate, ok.Load(), total)
	}
}

// TestClusterFailedOverMemberReturns pins the returned member contract with
// no clock: the directory answers [m0 m1 m2] throughout, m1 dies, the
// invocations that find it refusing ride the survivors and m1 is skipped, m1
// comes back and stays skipped, and one Refresh — naming the member list
// that never changed — gives it invocations again. Every wait is a bounded
// count of invocations.
func TestClusterFailedOverMemberReturns(t *testing.T) {
	net := transport.NewInproc()
	for _, addr := range []string{"m0", "m1", "m2"} {
		startReplica(t, net, addr)
	}
	_, dsrv := startDirectory(t, net, "dir", "m0", "m1", "m2")
	c, err := Dial(ClientConfig{Network: net, Directory: dsrv.Addr(), Group: testGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// invokeUntil invokes, one band after another, until done holds or the
	// bound runs out, and reports whether done held.
	invokeUntil := func(done func() bool) bool {
		for i := 0; i < 1000 && !done(); i++ {
			prio := sched.MinPriority + sched.Priority(i%31)
			if _, err := c.InvokeIdempotent(testGroup, "echo", []byte("hi"), prio); err != nil {
				t.Fatalf("invocation %d: %v", i, err)
			}
		}
		return done()
	}
	serverAt(t, "m1").Close()
	// Every invocation succeeds: the ones that find m1 refusing ride a
	// survivor. Picked at random among three, m1 is found within these.
	invokeUntil(func() bool { return false })

	startReplica(t, net, "m1")
	if invokeUntil(func() bool { return served("m1") > 0 }) {
		t.Fatal("the skipped member took invocations before a refresh named it")
	}
	if err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	if !isMember(c, "m1") {
		t.Fatalf("members after the refresh = %v", c.Members())
	}
	if !invokeUntil(func() bool { return served("m1") > 0 }) {
		t.Fatal("the returned member took no invocation in 1000")
	}
}

// TestClusterRefresherHealsReaddedMember exercises the background refresher:
// no explicit Refresh call — the ticker notices the directory change and
// retargets on its own.
func TestClusterRefresherHealsReaddedMember(t *testing.T) {
	net := transport.NewInproc()
	for _, addr := range []string{"m0", "m1"} {
		startReplica(t, net, addr)
	}
	dir, dsrv := startDirectory(t, net, "dir", "m0", "m1")

	c, err := Dial(ClientConfig{
		Network: net, Directory: dsrv.Addr(), Group: testGroup,
		RefreshInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	invokeAll := func() error {
		var last error
		for i := 0; i < 16; i++ {
			prio := sched.MinPriority + sched.Priority(i%31)
			if _, err := c.InvokeIdempotent(testGroup, "echo", []byte("hi"), prio); err != nil {
				last = err
			}
		}
		return last
	}
	if err := invokeAll(); err != nil {
		t.Fatal(err)
	}

	// Drop m1 from the directory; the refresher should remove it without
	// any invocation failing against it first.
	dir.Remove(testGroup, "m1")
	waitFor(t, "removed member dropped", func() bool { return !isMember(c, "m1") })

	// Re-add; the refresher must bring it back.
	dir.Add(testGroup, "m1")
	waitFor(t, "re-added member restored", func() bool { return isMember(c, "m1") })
	servedBefore := served("m1")
	waitFor(t, "re-added member traffic", func() bool {
		if err := invokeAll(); err != nil {
			t.Logf("invoke during heal: %v", err)
		}
		return served("m1") > servedBefore
	})
}
