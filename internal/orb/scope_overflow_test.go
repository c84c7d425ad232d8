package orb

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Requests parked inside RequestProcessing keep it from quiescing, so its
// area is never reclaimed while others pass through: they fill it to its
// capacity and not beyond, every reply after that is marshalled in a pooled
// scope nested under it, every call succeeds, and the pool stays as small as
// the overlap. Once the component quiesces, replies fit it again.
func TestScopeOverflowServerParkedRequests(t *testing.T) {
	const parked, ops = 4, 1500
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{Concurrency: 2 * parked})
	gate := gatedServant{entered: make(chan struct{}, parked), gate: make(chan struct{})}
	srv.RegisterServant("gate", gate)
	cl := dial(t, net, srv.Addr(), ClientConfig{})

	var held sync.WaitGroup
	for i := 0; i < parked; i++ {
		held.Add(1)
		go func() {
			defer held.Done()
			if _, err := cl.Invoke("gate", "hold", []byte("x"), sched.NormPriority); err != nil {
				t.Errorf("parked invocation: %v", err)
			}
		}()
	}
	for i := 0; i < parked; i++ {
		<-gate.entered
	}
	rp := srv.poa.SMM().Child("Transport1").SMM().Child("RequestProcessing")
	if rp == nil {
		t.Fatal("RequestProcessing is not live under its parked requests")
	}
	area := rp.Area()

	payload := make([]byte, 256)
	drawn := reusedOf(srv.repPool)
	for i := 0; i < ops; i++ {
		got, err := cl.Invoke("echo", "echo", payload, sched.NormPriority)
		if err != nil || len(got) != len(payload) {
			t.Fatalf("invocation %d past the parked ones: %d bytes, err %v", i, len(got), err)
		}
		if st := stateOf(area); st.used > st.capacity {
			t.Fatalf("RequestProcessing's area holds %d of %d bytes", st.used, st.capacity)
		}
	}
	// A reply needs giop.HeaderSize + 64 + 256 bytes; those the area had room
	// for stayed in it, the rest overflowed.
	fit := stateOf(area).capacity / (12 + 64 + 256)
	if d := reusedOf(srv.repPool) - drawn; d < ops-fit || d > ops {
		t.Errorf("overflow areas drawn = %d of %d replies, want all but the %d or fewer that fit", d, ops, fit)
	}
	if created, _, _ := srv.repPool.Stats(); created > 4 {
		t.Errorf("overflow pool grew to %d areas under one caller passing through", created)
	}
	if n, err := srv.App().Errors(); n != 0 {
		t.Errorf("server reported %d handler errors, last: %v", n, err)
	}

	close(gate.gate)
	held.Wait()
}

// The same on the client, with MessageProcessing held live by a handle (its
// liveness word does not tell a handle from a caller parked in the handler):
// requests fill its area exactly, the ones after that take the nested scope,
// a request larger than both areas fails with the nested area's
// ErrOutOfMemory, and once the handle goes requests fit again.
func TestScopeOverflowClientPinnedComponent(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{Synchronous: true})
	cl := dial(t, net, srv.Addr(), ClientConfig{})
	payload := make([]byte, 1024)
	invoke := func(payload []byte) error {
		got, err := cl.Invoke("echo", "echo", payload, sched.NormPriority)
		if err == nil && len(got) != len(payload) {
			err = errors.New("short echo")
		}
		return err
	}
	if err := invoke(payload); err != nil { // instantiates the Transport
		t.Fatal(err)
	}

	pin, err := cl.App().Component("ORB").SMM().Child("Transport").SMM().Connect("MessageProcessing")
	if err != nil {
		t.Fatal(err)
	}
	area := pin.Component().Area()
	overflows := telemetry.NewCounter("scope_overflow_total")
	// What submit asks for: header, fixed request fields, key, operation, payload.
	wireCap := int64(12 + 96 + len("echo") + len("echo") + len(payload))
	st := stateOf(area)
	fit := (st.capacity - st.used) / wireCap

	const ops = 200
	drawn, spilled := reusedOf(cl.reqPool), overflows.Value()
	for i := 0; i < ops; i++ {
		if err := invoke(payload); err != nil {
			t.Fatalf("invocation %d: %v", i, err)
		}
		if st := stateOf(area); st.used > st.capacity {
			t.Fatalf("MessageProcessing's area holds %d of %d bytes", st.used, st.capacity)
		}
	}
	if st := stateOf(area); st.capacity-st.used >= wireCap {
		t.Errorf("MessageProcessing's area has %d bytes free, room for another %d-byte request", st.capacity-st.used, wireCap)
	}
	if d := reusedOf(cl.reqPool) - drawn; d != ops-fit {
		t.Errorf("overflow areas drawn = %d of %d requests, want %d (%d fit the component)", d, ops, ops-fit, fit)
	}
	if d := overflows.Value() - spilled; d != ops-fit {
		t.Errorf("scope_overflow_total moved by %d, want %d", d, ops-fit)
	}
	if created, _, free := cl.reqPool.Stats(); created != 4 || free != 4 {
		t.Errorf("overflow pool: %d areas, %d free, want the 4 it started with, all home", created, free)
	}

	// Larger than what is left of the component's area and than a nested one.
	err = invoke(make([]byte, 5*DefaultMaxMessage))
	if !errors.Is(err, memory.ErrOutOfMemory) {
		t.Errorf("oversized request: err = %v, want ErrOutOfMemory", err)
	}
	if _, _, free := cl.reqPool.Stats(); free != 4 {
		t.Errorf("overflow pool has %d of 4 areas home after the refused request", free)
	}

	pin.Disconnect()
	drawn = reusedOf(cl.reqPool)
	for i := 0; i < ops; i++ {
		if err := invoke(payload); err != nil {
			t.Fatalf("invocation %d after the handle went: %v", i, err)
		}
	}
	if d := reusedOf(cl.reqPool) - drawn; d != 0 {
		t.Errorf("overflow areas drawn after MessageProcessing quiesced = %d", d)
	}
}

// Sixteen callers on one connection: MessageProcessing and RequestProcessing
// are joined live more often than revived, both sides of the rule are taken,
// and every call succeeds with both overflow pools bounded by the overlap. The
// log line is the share of requests that took the nested scope on each side
// (EXPERIMENTS.md quotes it).
func TestScopeOverflowPipelinedCallers(t *testing.T) {
	const callers, each = 16, 400
	for _, row := range []struct {
		name string
		net  transport.Network
		addr string
	}{{"inproc", transport.NewInproc(), ""}, {"tcp", transport.TCP{}, "127.0.0.1:0"}} {
		t.Run(row.name, func(t *testing.T) {
			srv := startEchoServer(t, row.net, row.addr, ServerConfig{})
			cl := dial(t, row.net, srv.Addr(), ClientConfig{})
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					payload := make([]byte, 256+c)
					for i := 0; i < each; i++ {
						got, err := cl.Invoke("echo", "echo", payload, sched.NormPriority)
						if err != nil || len(got) != len(payload) {
							t.Errorf("caller %d invocation %d: %d bytes, err %v", c, i, len(got), err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			reqCreated, reqReused, reqFree := cl.reqPool.Stats()
			repCreated, repReused, _ := srv.repPool.Stats()
			t.Logf("%d callers x %d invocations: %.1f%% of requests and %.1f%% of replies overflowed their component's area",
				callers, each, 100*float64(reqReused+reqCreated-4)/(callers*each), 100*float64(repReused+repCreated-4)/(callers*each))
			if reqCreated > callers || reqFree != int(reqCreated) {
				t.Errorf("client overflow pool: %d areas, %d free, for %d callers", reqCreated, reqFree, callers)
			}
			if repCreated > DefaultConcurrency+4 {
				t.Errorf("server overflow pool grew to %d areas", repCreated)
			}
			if n, err := srv.App().Errors(); n != 0 {
				t.Errorf("server reported %d handler errors, last: %v", n, err)
			}
			if n, err := cl.App().Errors(); n != 0 {
				t.Errorf("client reported %d handler errors, last: %v", n, err)
			}
		})
	}
}
