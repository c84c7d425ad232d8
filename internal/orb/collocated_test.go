package orb

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
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

// wired reports whether any member of the client has had a connection: the
// wire path dials the member an invocation rides, the direct transport none.
func wired(cl *Client) bool {
	for _, m := range members(cl) {
		if m.dialled.Load() {
			return true
		}
	}
	return false
}

// netAlias wraps a Network in a distinct dynamic type so a server listening
// through it shares the inner network's address space (clients dialing the
// inner network reach it) but registers under a different localKey — i.e. it
// is reachable over the wire yet invisible to the collocation registry. This
// is how tests stand up a genuinely remote-looking member in one process.
type netAlias struct{ transport.Network }

// TestCollocatedInvokeBasic pins the direct transport end to end: an opted-in
// client resolves the in-process server, every entry point answers, the
// collocated counter moves, and no connection is ever dialled. (That the
// answers match the wire's in every scenario is TestInvokeConformance's job.)
func TestCollocatedInvokeBasic(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	cl := dial(t, net, srv.Addr(), ClientConfig{Collocate: true})

	before := collocatedInvokeTotal.Value()

	payload := []byte("straight through the registry")
	out, err := cl.Invoke("echo", "echo", payload, sched.NormPriority)
	if err != nil || !bytes.Equal(out, payload) {
		t.Fatalf("collocated Invoke = (%q, %v), want echo", out, err)
	}
	out, err = cl.InvokeIdempotent("echo", "echo", []byte("again"), sched.NormPriority)
	if err != nil || string(out) != "again" {
		t.Fatalf("collocated InvokeIdempotent = (%q, %v)", out, err)
	}
	var viewed []byte
	err = cl.InvokeView("echo", "echo", []byte("view"), sched.NormPriority, func(reply memory.Loan) error {
		b, berr := reply.Bytes()
		if berr != nil {
			return berr
		}
		viewed = append(viewed[:0], b...)
		return nil
	})
	if err != nil || string(viewed) != "view" {
		t.Fatalf("collocated InvokeView = (%q, %v)", viewed, err)
	}
	if err := cl.InvokeOneway("echo", "echo", []byte("oneway"), sched.NormPriority); err != nil {
		t.Fatalf("collocated InvokeOneway: %v", err)
	}

	if got := collocatedInvokeTotal.Value() - before; got != 4 {
		t.Errorf("collocated_invoke_total moved by %d, want 4", got)
	}
	if wired(cl) {
		t.Error("a collocated client dialled a connection; collocated calls must bypass the wire")
	}

	// Error shape parity: a user exception through the fast path is the same
	// corba.ErrUserException wrap the demux surfaces.
	srv.RegisterServant("fail", corba.ServantFunc(func(op string, in []byte) ([]byte, error) {
		return nil, fmt.Errorf("boom")
	}))
	if _, err := cl.Invoke("fail", "op", nil, sched.NormPriority); !errors.Is(err, corba.ErrUserException) {
		t.Errorf("collocated user exception = %v, want corba.ErrUserException", err)
	}
	if _, err := cl.Invoke("nope", "op", nil, sched.NormPriority); !errors.Is(err, corba.ErrSystemException) {
		t.Errorf("collocated missing servant = %v, want corba.ErrSystemException", err)
	}
}

// TestCollocatedOptOut pins that collocation is opt-in: a default client in
// the same process keeps taking the wire path.
func TestCollocatedOptOut(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	cl := dial(t, net, srv.Addr(), ClientConfig{})

	before := collocatedInvokeTotal.Value()
	if _, err := cl.Invoke("echo", "echo", []byte("x"), sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	if got := collocatedInvokeTotal.Value() - before; got != 0 {
		t.Errorf("opt-out client took the collocated path %d times", got)
	}
	if !wired(cl) {
		t.Error("opt-out client sent nothing over the wire")
	}
}

// TestCollocatedRetargetInvalidation pins the route-generation contract: a
// Retarget away from the in-process member flips the client back to the wire
// path on the very next invoke, and a retarget back re-detects collocation.
func TestCollocatedRetargetInvalidation(t *testing.T) {
	net := transport.NewInproc()
	local := startEchoServer(t, net, "", ServerConfig{})
	remote := startEchoServer(t, netAlias{net}, "", ServerConfig{}) // wire-reachable, registry-invisible
	cl := dial(t, net, local.Addr(), ClientConfig{Collocate: true})

	before := collocatedInvokeTotal.Value()
	if _, err := cl.Invoke("echo", "echo", []byte("a"), sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	if collocatedInvokeTotal.Value()-before != 1 {
		t.Fatal("first invoke did not take the collocated path")
	}

	cl.Retarget([]string{remote.Addr()})
	out, err := cl.Invoke("echo", "echo", []byte("b"), sched.NormPriority)
	if err != nil || string(out) != "b" {
		t.Fatalf("post-retarget invoke = (%q, %v)", out, err)
	}
	if got := collocatedInvokeTotal.Value() - before; got != 1 {
		t.Errorf("collocated counter moved to %d after retarget to a remote-only member", got)
	}
	if !wired(cl) {
		t.Error("post-retarget invoke did not take the wire path")
	}

	cl.Retarget([]string{local.Addr()})
	if _, err := cl.Invoke("echo", "echo", []byte("c"), sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	if got := collocatedInvokeTotal.Value() - before; got != 2 {
		t.Errorf("retarget back to the local member did not re-detect collocation (counter delta %d, want 2)", got)
	}
}

// TestCollocatedCountingContract pins who counts an invocation in flight.
// A collocated call parked in its servant is counted once by the server —
// what Drain waits on — and once by its controller, and not by the client,
// whose Inflight counts wire invocations only; a wire call parked in the same
// servant is the client's. Traced, the server span of a collocated call names
// the client span as its correlator, since the direct transport draws no
// request id.
func TestCollocatedCountingContract(t *testing.T) {
	ctrl := overload.NewController(overload.Config{Window: time.Hour})
	defer ctrl.Close()
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{Overload: ctrl})
	entered, release := make(chan struct{}), make(chan struct{})
	srv.RegisterServant("park", corba.ServantFunc(func(op string, in []byte) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return in, nil
	}))
	local := dial(t, net, srv.Addr(), ClientConfig{Collocate: true})
	remote := dial(t, net, srv.Addr(), ClientConfig{})

	// park sends one invocation into the parking servant and returns once
	// the servant holds it, with the channel its error arrives on.
	park := func(cl *Client) chan error {
		errc := make(chan error, 1)
		go func() {
			_, err := cl.Invoke("park", "op", []byte("x"), sched.NormPriority)
			errc <- err
		}()
		<-entered
		return errc
	}

	errc := park(local)
	if s, c, l := srv.Inflight(), ctrl.Inflight(), local.Inflight(); s != 1 || c != 1 || l != 0 {
		t.Errorf("collocated call parked: server %d, controller %d, client %d in flight; want 1, 1, 0", s, c, l)
	}
	if err := srv.Drain(20 * time.Millisecond); err == nil {
		t.Error("Drain returned while a collocated call was in its servant")
	}
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(5 * time.Second) }()
	release <- struct{}{}
	if err := <-errc; err != nil {
		t.Fatalf("collocated call: %v", err)
	}
	if err := <-drained; err != nil {
		t.Errorf("Drain once the collocated call returned: %v", err)
	}

	errc = park(remote)
	if got := remote.Inflight(); got != 1 {
		t.Errorf("wire call parked: client %d in flight, want 1", got)
	}
	release <- struct{}{}
	if err := <-errc; err != nil {
		t.Fatalf("wire call: %v", err)
	}

	telemetry.Verbose(true)
	defer telemetry.Verbose(false)
	if _, err := local.Invoke("echo", "echo", []byte("traced"), sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	var trace, clientSpan, corr uint64
	for _, ev := range telemetry.Default.Ring().Snapshot() {
		if ev.Kind == telemetry.EvSpanStart && ev.Label == "orb.client.invoke" {
			trace, clientSpan = ev.Trace, ev.Span // oldest→newest: keep this call's
		}
	}
	for _, ev := range telemetry.Default.Ring().TraceEvents(trace) {
		if ev.Kind == telemetry.EvSpanStart && ev.Label == "orb.server.request" {
			corr = ev.Arg
		}
	}
	if clientSpan == 0 || corr != clientSpan {
		t.Errorf("collocated server span correlator = %x, want the client span id %x", corr, clientSpan)
	}
}

// TestChaosCollocatedSwapUnderTraffic is the hot-swap soak: a client spread
// over a collocated member and a wire member hammers echo from many
// goroutines while the collocated server is closed mid-flight. The stale
// binding must fall back to the wire path within the same call — zero
// dropped or failed invocations — and traffic must demonstrably use both
// paths across the storm. Run with -race to pin the registry, binding cache,
// and route-generation plumbing.
func TestChaosCollocatedSwapUnderTraffic(t *testing.T) {
	net := transport.NewInproc()
	local, err := NewServer(ServerConfig{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	local.RegisterServant("echo", corba.EchoServant{})
	local.ServeBackground()
	remote := startEchoServer(t, netAlias{net}, "", ServerConfig{})

	cl, err := DialClient(ClientConfig{
		Network:    net,
		Addrs:      []string{local.Addr(), remote.Addr()},
		Collocate:  true,
		Resilience: &ResilienceConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	const workers = 8
	const perWorker = 400
	colBefore := collocatedInvokeTotal.Value()
	var failures atomic.Int64
	var swap sync.Once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := []byte{byte(w)}
			for i := 0; i < perWorker; i++ {
				if i == perWorker/2 {
					// Swap deterministically mid-storm: the first worker to
					// reach its halfway mark closes the collocated member
					// while every sibling is still in full flight.
					swap.Do(local.Close)
				}
				out, err := cl.InvokeIdempotent("echo", "echo", payload, sched.NormPriority)
				if err != nil || len(out) != 1 || out[0] != byte(w) {
					failures.Add(1)
					t.Errorf("worker %d iter %d: (%q, %v)", w, i, out, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d invocations dropped across the swap; collocation fallback must be lossless", failures.Load())
	}
	if collocatedInvokeTotal.Value() == colBefore {
		t.Error("storm never used the collocated path; swap was not exercised")
	}
	if !wired(cl) {
		t.Error("storm never reached the wire path after the swap")
	}

	// The binding cache must not resurrect the closed server: a fresh invoke
	// still lands on the surviving wire member.
	out, err := cl.InvokeIdempotent("echo", "echo", []byte("after"), sched.NormPriority)
	if err != nil || string(out) != "after" {
		t.Fatalf("post-swap invoke = (%q, %v)", out, err)
	}
}
