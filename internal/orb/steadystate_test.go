package orb

import (
	"testing"

	"repro/internal/corba"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// reusedOf reports how many areas a pool has handed out of its free list.
func reusedOf(p *memory.ScopePool) int64 {
	_, reused, _ := p.Stats()
	return reused
}

// perRequestArea returns the area a per-request component's shell keeps,
// reviving the shell through a handle to read it; the handle's release
// reclaims the area once.
func perRequestArea(t *testing.T, smm *core.SMM, name string) *memory.Area {
	t.Helper()
	h, err := smm.Connect(name)
	if err != nil {
		t.Fatal(err)
	}
	a := h.Component().Area()
	h.Disconnect()
	return a
}

// TestSteadyStateMemory drives thousands of invocations from a lone caller
// and verifies the central RTSJ claim the whole design serves: in steady
// state, no memory region grows. Immortal usage is flat, the per-request
// components keep their areas, reclaimed in place once per invocation — the
// generation moves by one each time — and hold each request's bytes
// themselves — the overflow pools are never touched — and every pooled
// message returns.
//
// That is exact wherever the ports are calls: the client always, and a
// Synchronous server. Behind a pool-threaded port the thread that ran a
// request lets RequestProcessing go after it has written the reply, so the
// caller's next request can find the instance still live and join it; a run
// of those fills the area and the replies behind it overflow, which is the
// rule working, and all that is pinned there is that nothing grows.
func TestSteadyStateMemory(t *testing.T) {
	for _, row := range []struct {
		name        string
		synchronous bool
	}{{"synchronous server", true}, {"pool-threaded server", false}} {
		t.Run(row.name, func(t *testing.T) {
			net := transport.NewInproc()
			srv := startEchoServer(t, net, "", ServerConfig{Synchronous: row.synchronous})
			cl := dial(t, net, srv.Addr(), ClientConfig{})

			payload := make([]byte, 256)
			invoke := func() {
				t.Helper()
				got, err := cl.Invoke("echo", "echo", payload, sched.NormPriority)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(payload) {
					t.Fatal("short echo")
				}
			}

			// RequestProcessing's generation is read from inside a request: a
			// synchronous server's reader finished the request before it,
			// reclaim included, before reading this one, while a read after
			// Invoke returns can come before the last reclaim, which follows
			// the reply.
			var rpArea *memory.Area
			rpGens := make(chan uint64, 1)
			srv.RegisterServant("rpgen", corba.ServantFunc(func(string, []byte) ([]byte, error) {
				rpGens <- stateOf(rpArea).gen
				return nil, nil
			}))
			rpGenNow := func() uint64 {
				t.Helper()
				if _, err := cl.Invoke("rpgen", "gen", nil, sched.NormPriority); err != nil {
					t.Fatal(err)
				}
				return <-rpGens
			}

			// Warm up until every lazy structure exists.
			for i := 0; i < 50; i++ {
				invoke()
			}
			clientImmortal := stateOf(cl.App().Model().Immortal()).used
			serverImmortal := stateOf(srv.App().Model().Immortal()).used
			tSMM := cl.App().Component("ORB").SMM().Child("Transport").SMM()
			mpArea := perRequestArea(t, tSMM, "MessageProcessing")
			rpArea = perRequestArea(t, srv.poa.SMM().Child("Transport1").SMM(), "RequestProcessing")
			rpGen := rpGenNow()
			mpGen := stateOf(mpArea).gen
			reqReused, repReused := reusedOf(cl.reqPool), reusedOf(srv.repPool)
			overflows := telemetry.NewCounter("scope_overflow_total")
			spilled := overflows.Value()

			const ops = 2000
			for i := 0; i < ops; i++ {
				invoke()
			}

			if got := stateOf(cl.App().Model().Immortal()).used; got != clientImmortal {
				t.Errorf("client immortal grew: %d -> %d bytes", clientImmortal, got)
			}
			if got := stateOf(srv.App().Model().Immortal()).used; got != serverImmortal {
				t.Errorf("server immortal grew: %d -> %d bytes", serverImmortal, got)
			}

			// The client: MessageProcessing is revived and let go by the caller
			// itself, once per invocation, and the request is marshalled in it.
			if d := reusedOf(cl.reqPool) - reqReused; d != 0 {
				t.Errorf("client overflow areas drawn by a lone caller = %d", d)
			}
			if d := stateOf(mpArea).gen - mpGen; d != ops {
				t.Errorf("client MP area reclaimed %d times across %d invocations", d, ops)
			}

			// The server: the same, exactly, when its port is a call. The
			// first read's own request was reclaimed once too.
			repDrawn := reusedOf(srv.repPool) - repReused
			rpReclaims := rpGenNow() - rpGen - 1
			if row.synchronous {
				if repDrawn != 0 || overflows.Value() != spilled {
					t.Errorf("server overflow areas drawn by a lone caller = %d (scope_overflow_total +%d)", repDrawn, overflows.Value()-spilled)
				}
				if rpReclaims != ops {
					t.Errorf("server RP area reclaimed %d times across %d invocations", rpReclaims, ops)
				}
			} else if created, _, _ := srv.repPool.Stats(); created > 4 || rpReclaims == 0 || rpReclaims > ops {
				t.Errorf("server under a lone caller: %d overflow areas, RP area reclaimed %d times across %d invocations", created, rpReclaims, ops)
			}

			// All pooled messages are back home.
			if inFlight := pooledInFlight(cl.invoke.Load(), clientMsgPoolCapacity); inFlight != 0 {
				t.Errorf("client invocation pool in flight = %d", inFlight)
			}
		})
	}
}
