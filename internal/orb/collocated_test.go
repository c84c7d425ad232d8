package orb

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/corba"
	"repro/internal/memory"
	"repro/internal/sched"
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
