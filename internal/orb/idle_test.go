package orb

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/corba"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// These tests pin the contract that changed hands when the client stopped
// owning threads: nobody reads a connection nobody is waiting on, so what
// happens to an idle connection is found out by the next invocation.

// TestIdleConnectionDeathFoundByNextInvocation kills the server under a
// dialled, used, idle client and restarts it on the same address. The next
// invocation finds the dead connection: a plain Invoke surfaces exactly one
// transport-classified error and the one after it redials; the entry points
// that may retry — InvokeIdempotent, Locate, InvokeOneway — heal inside the
// call. A oneway written into the dead connection before the transport
// reported it is lost, as on any socket; the next ones reach the new server.
func TestIdleConnectionDeathFoundByNextInvocation(t *testing.T) {
	for _, nw := range []struct {
		name string
		mk   func() (server, client transport.Network)
		addr string
	}{
		{"inproc", func() (transport.Network, transport.Network) { n := transport.NewInproc(); return n, n }, "idle"},
		{"tcp", func() (transport.Network, transport.Network) { return transport.TCP{}, transport.TCP{} }, "127.0.0.1:0"},
		{"fault", func() (transport.Network, transport.Network) {
			n := transport.NewInproc()
			return n, fault.New(n, fault.Config{Seed: 1})
		}, "idle"},
	} {
		t.Run(nw.name, func(t *testing.T) {
			snet, cnet := nw.mk()
			sunk := make(chan string, 64)
			start := func(addr string) *Server {
				srv := startEchoServer(t, snet, addr, ServerConfig{})
				srv.RegisterServant("sink", corba.ServantFunc(func(op string, in []byte) ([]byte, error) {
					sunk <- string(in)
					return nil, nil
				}))
				return srv
			}
			srv := start(nw.addr)
			addr := srv.Addr()
			cl := dial(t, cnet, addr, ClientConfig{Resilience: &ResilienceConfig{
				ReconnectBase: time.Millisecond, BreakerThreshold: 100,
			}})
			// restart leaves the client idle on a connection whose server is
			// gone, with a new server listening where the old one was.
			restart := func() {
				t.Helper()
				if _, err := cl.Invoke("echo", "echo", []byte("warm"), sched.NormPriority); err != nil {
					t.Fatalf("warm-up: %v", err)
				}
				srv.Close()
				srv = start(addr)
			}

			restart()
			_, err := cl.Invoke("echo", "echo", []byte("x"), sched.NormPriority)
			if err == nil || !retriable(err) {
				t.Fatalf("Invoke on the dead connection: err = %v, want one transport-classified error", err)
			}
			if out, err := cl.Invoke("echo", "echo", []byte("y"), sched.NormPriority); err != nil || string(out) != "y" {
				t.Fatalf("Invoke after the death was found = (%q, %v), want a redial", out, err)
			}

			restart()
			if out, err := cl.InvokeIdempotent("echo", "echo", []byte("z"), sched.NormPriority); err != nil || string(out) != "z" {
				t.Errorf("InvokeIdempotent across the death = (%q, %v)", out, err)
			}

			restart()
			reached := false
			for i := 0; i < 50 && !reached; i++ {
				if err := cl.InvokeOneway("sink", "push", []byte{byte(i)}, sched.NormPriority); err != nil {
					t.Fatalf("oneway %d across the death: %v", i, err)
				}
				select {
				case <-sunk:
					reached = true
				case <-time.After(20 * time.Millisecond):
				}
			}
			if !reached {
				t.Error("no oneway reached the restarted server")
			}
		})
	}
}

// TestIdleClientOwnsNoThread dials a two-member client, uses it, and lets it
// go idle: it must be holding no goroutine and no scheduler pool — its ports
// are calls and each connection is read by whoever waits on it.
func TestIdleClientOwnsNoThread(t *testing.T) {
	poolGauges := func() map[string]bool {
		labels := map[string]bool{}
		for _, g := range telemetry.Default.Snapshot(telemetry.SnapshotOptions{}).Gauges {
			if g.Name == "pool_workers" {
				labels[g.Label] = true
			}
		}
		return labels
	}
	net := transport.NewInproc()
	r0, r1 := newRawServer(t, net), newRawServer(t, net)
	r0.serve(echoUntilClosed) // one server goroutine per member,
	r1.serve(echoUntilClosed) // both started before the count is taken
	goroutines, pools := runtime.NumGoroutine(), poolGauges()

	cl := dial(t, net, "", ClientConfig{Addrs: []string{r0.addr, r1.addr}})
	for i := 0; i < 8; i++ {
		if _, err := cl.Invoke("echo", "echo", []byte("used"), sched.MinPriority+sched.Priority(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.InvokeOneway("echo", "echo", nil, sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	for _, m := range members(cl) {
		if !m.live() {
			t.Fatalf("member %s is not connected", m.addr)
		}
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("an idle client holds %d goroutine(s)\n%s", n-goroutines, buf[:runtime.Stack(buf, true)])
	}
	for label := range poolGauges() {
		if !pools[label] {
			t.Errorf("the client created scheduler pool %q", label)
		}
	}
}

// TestDeprecatedConfigIsInert pins that the fields the endpoints ignore select
// nothing. Set or not, the client ORB has no In port (callers send straight
// into MessageProcessing on Transport's port), MessageProcessing's port is a
// call (no buffer, so its queue high-water mark stays 0 on every client the
// test builds; /metrics shows all of them), the connection hands out a leader
// token, neither endpoint has a scope pool at its per-request component's
// level (each shell makes its own area), and both have used the same immortal
// bytes after the first invocation.
func TestDeprecatedConfigIsInert(t *testing.T) {
	type shape struct {
		ORBInPort            bool
		MPQueueMax           int64
		Token                bool
		MPPool, RPPool       bool
		ClientImm, ServerImm int64
	}
	build := func(ccfg ClientConfig, scfg ServerConfig) shape {
		net := transport.NewInproc()
		srv := startEchoServer(t, net, "", scfg)
		cl := dial(t, net, srv.Addr(), ccfg)
		if _, err := cl.Invoke("echo", "echo", []byte("x"), sched.NormPriority); err != nil {
			t.Fatal(err)
		}
		_, orbInPort := portGauge("port_received", "Transport.request")
		mpQueueMax, _ := portGauge("port_queue_max", "MessageProcessing.request")
		return shape{
			ORBInPort: orbInPort, MPQueueMax: mpQueueMax,
			Token:  members(cl)[0].cur.Load().leaderCh != nil,
			MPPool: cl.App().ScopePool(2) != nil, RPPool: srv.App().ScopePool(3) != nil,
			ClientImm: stateOf(cl.App().Model().Immortal()).used,
			ServerImm: stateOf(srv.App().Model().Immortal()).used,
		}
	}
	unset := build(ClientConfig{}, ServerConfig{})
	for _, row := range []struct {
		field string
		cl    ClientConfig
		srv   ServerConfig
	}{
		{"ClientConfig.Synchronous", ClientConfig{Synchronous: true}, ServerConfig{}},
		{"ClientConfig.ScopePoolCount", ClientConfig{ScopePoolCount: 4}, ServerConfig{}},
		{"ServerConfig.ScopePoolCount", ClientConfig{}, ServerConfig{ScopePoolCount: 4}},
	} {
		if set := build(row.cl, row.srv); set != unset {
			t.Errorf("%s set built %+v, unset %+v", row.field, set, unset)
		}
	}
	if want := (shape{Token: true, ClientImm: unset.ClientImm, ServerImm: unset.ServerImm}); unset != want {
		t.Errorf("endpoint shape = %+v, want %+v", unset, want)
	}
}

// TestRetriableBeforeFirstByte runs every error the wire transport can return
// before a byte of the request is written through the retry classifier: what
// never left the process for a reason that may pass is retriable, what would
// fail the same way again is not.
func TestRetriableBeforeFirstByte(t *testing.T) {
	dialErr := &transport.OpError{Op: "dial", Addr: "a", Err: transport.ErrNoListener}
	for _, c := range []struct {
		name string
		err  error
		want bool
	}{
		{"pickMember: every breaker open", ErrCircuitOpen, true},
		{"invoke.GetMessage: pool empty", fmt.Errorf("%w: type %q", core.ErrPoolEmpty, "InvokeRequest"), true},
		{"toMP / invoke.Send: client stopped", core.ErrStopped, false},
		{"toMP: unsupervised first dial", fmt.Errorf("child %q start: %w", "Transport", fmt.Errorf("orb client dial %q: %w", "a", dialErr)), true},
		{"await: dropped in the pipeline", errUnbound, true},
		{"reqPool.Acquire: scope pool exhausted", memory.ErrPoolExhausted, false},
		{"submit: marshal buffer over budget", fmt.Errorf("orb client: marshal buffer: %w", memory.ErrOutOfMemory), false},
		{"member.conn: no connection, unsupervised", corba.ErrClosed, true},
		{"member.conn: redial refused", fmt.Errorf("orb client dial %q: %w", "a", dialErr), true},
		{"register: connection already dead", fmt.Errorf("orb client: read: %w", corba.ErrClosed), true},
		{"a relay buffer the client no longer has", core.ErrBufferFull, false},
	} {
		if got := retriable(c.err); got != c.want {
			t.Errorf("%s: retriable(%v) = %v, want %v", c.name, c.err, got, c.want)
		}
		if wrapped := fmt.Errorf("orb client: %w", c.err); retriable(wrapped) != c.want {
			t.Errorf("%s: wrapping changed the verdict", c.name)
		}
	}
}
