package orb

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/transport"
)

// TestConcurrentInvokersMultiCore is the regression test for the
// GOMAXPROCS ≥ 2 wedge: 16 closed-loop invokers on one connection, on four
// Ps, over both transports and both server port threadings. A sender arriving
// while a MessageProcessing or RequestProcessing shell quiesced used to be
// able to build a second shell in the window (core.maybeQuiesce), after which
// every invocation spun in resolveIn for ten seconds and failed with "owner
// kept quiescing"; that took a fraction of a second to happen.
//
// Every case also guards the leader election of Client.await: a caller that
// waited on its entry alone, out of the election, was left hanging when its
// reply arrived after every other caller had gone (one run of this package in
// twenty, while synchronous ports still buffered and a caller could return
// from Send with another caller's thread carrying its invocation).
func TestConcurrentInvokersMultiCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	window := 2 * time.Second
	if testing.Short() {
		window = 300 * time.Millisecond
	}
	cases := []struct {
		name string
		net  transport.Network
		addr string
		sync bool
	}{
		{"inproc/pool", transport.NewInproc(), "", false},
		{"inproc/synchronous", transport.NewInproc(), "", true},
		{"tcp/pool", transport.TCP{}, "127.0.0.1:0", false},
		{"tcp/synchronous", transport.TCP{}, "127.0.0.1:0", true},
	}
	// The four run side by side (the group returns when all have): the
	// same window of load on the machine as one of them, and more
	// preemption inside each.
	t.Run("group", func(t *testing.T) {
		for _, tc := range cases {
			tc := tc
			t.Run(tc.name, func(t *testing.T) {
				t.Parallel()
				runInvokers(t, tc.net, tc.addr, tc.sync, window)
			})
		}
	})
}

// runInvokers drives 16 closed-loop invokers through one client for window
// and demands zero errors and an empty pipeline at the end.
func runInvokers(t *testing.T, net transport.Network, addr string, synchronous bool, window time.Duration) {
	srv := startEchoServer(t, net, addr, ServerConfig{Synchronous: synchronous})
	cl := dial(t, net, srv.Addr(), ClientConfig{})

	const invokers = 16
	var ops atomic.Int64
	errs := make([]error, invokers)
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for i := 0; i < invokers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(i)}, 256)
			for time.Now().Before(deadline) {
				got, err := cl.Invoke("echo", "echo", payload, sched.NormPriority)
				if err == nil && !bytes.Equal(got, payload) {
					err = fmt.Errorf("cross-talk: a reply of %d bytes starting %v", len(got), got[:1])
				}
				if err != nil {
					errs[i] = fmt.Errorf("after %d ops: %w", ops.Load(), err)
					return
				}
				ops.Add(1)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("invoker %d: %v", i, err)
		}
	}
	if got := cl.Inflight(); got != 0 {
		t.Errorf("client inflight = %d after every invoker returned", got)
	}
	if err := srv.Drain(time.Second); err != nil {
		t.Error(err)
	}
	if ops.Load() == 0 {
		t.Error("no invocation completed")
	}
}

// TestConcurrentInvokersReachAwaitBound pins what Client.await relies on
// instead of polling: a synchronous port is a call, so every caller comes back
// from Send with its own entry registered on a connection or already
// completed — never with another caller's thread still carrying it. 16 callers
// on 2 and on 4 processors must never be counted unbound.
func TestConcurrentInvokersReachAwaitBound(t *testing.T) {
	window := time.Second
	if testing.Short() {
		window = 200 * time.Millisecond
	}
	for _, procs := range []int{2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			before := awaitUnbound.Value()
			runInvokers(t, transport.NewInproc(), "", true, window)
			if d := awaitUnbound.Value() - before; d != 0 {
				t.Errorf("%d callers reached await with an entry neither bound nor completed", d)
			}
		})
	}
}
