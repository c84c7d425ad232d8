package orb

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/sched"
	"repro/internal/transport"
)

// stripesWithTraffic counts stripes that routed at least one invocation.
func stripesWithTraffic(cl *Client) int {
	n := 0
	for _, st := range cl.stripes {
		if st.sent.Load() > 0 {
			n++
		}
	}
	return n
}

// TestStripesSpreadBands drives traffic across every priority band through
// a 4-stripe pool and demands the load lands on more than one stripe:
// band-sticky selection pins a band while it has work in flight, but idle
// bands re-balance via power-of-two-choices.
func TestStripesSpreadBands(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{Concurrency: 8})
	cl := dial(t, net, srv.Addr(), ClientConfig{Channels: 4, PipelineDepth: 32})

	if len(cl.stripes) != 4 {
		t.Fatalf("Channels=4 built %d stripes", len(cl.stripes))
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
	if n := stripesWithTraffic(cl); n < 2 {
		t.Errorf("all traffic landed on %d stripe(s); striping is not spreading load", n)
	}
	var total int64
	for _, st := range cl.stripes {
		total += st.sent.Load()
	}
	if want := int64(4 * int(sched.MaxPriority)); total != want {
		t.Errorf("stripes recorded %d sends, want %d", total, want)
	}
}

// TestStripeFailoverIsolated kills one stripe's connection and demands the
// failure stays contained: the surviving stripes keep serving with their
// breakers closed, and the dead stripe redials and rejoins the pool once
// load drifts back to it.
func TestStripeFailoverIsolated(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{Concurrency: 8})
	cl := dial(t, net, srv.Addr(), ClientConfig{
		Channels:   2,
		Resilience: &ResilienceConfig{BreakerThreshold: 4, MaxRetries: 0},
	})

	// The Transport component instantiates (and dials every stripe) on the
	// first submission; warm it up before poking at connection state.
	if _, err := cl.Invoke("echo", "echo", []byte("warmup"), sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	for _, st := range cl.stripes {
		if !st.live() {
			t.Fatalf("stripe %d not connected after warm-up", st.idx)
		}
	}
	// Sever stripe 0's wire out from under it.
	cl.stripes[0].cur.Load().conn.Close()
	waitFor(t, func() bool { return !cl.stripes[0].live() })

	if st := cl.stripes[1].brk.State(); st != breakerClosed {
		t.Fatalf("stripe 1's breaker tripped (%d) by stripe 0's death", st)
	}
	// Keep invoking: every call must succeed (the survivor carries them, or
	// the dead stripe redials), and load must eventually drift back onto
	// stripe 0 and revive it.
	for i := 0; i < 400 && !cl.stripes[0].live(); i++ {
		p := sched.MinPriority + sched.Priority(i%31)
		payload := []byte(fmt.Sprintf("i%d", i))
		got, err := cl.Invoke("echo", "echo", payload, p)
		if err != nil {
			t.Fatalf("invoke %d after stripe death: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("invoke %d: got %q", i, got)
		}
	}
	if !cl.stripes[0].live() {
		t.Error("stripe 0 never redialled; dead stripes should rejoin the pool")
	}
	for i, st := range cl.stripes {
		if s := st.brk.State(); s != breakerClosed {
			t.Errorf("stripe %d breaker state = %d after recovery, want closed", i, s)
		}
	}
}

// TestStripedStorm is the full-stack soak: 64 concurrent invokers across
// all priority bands, 4 stripes, requests and replies batching. Every reply
// must match its request and the pending tables must drain.
func TestStripedStorm(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{
		Concurrency: 16,
	})
	cl := dial(t, net, srv.Addr(), ClientConfig{
		Channels: 4, PipelineDepth: 64,
	})

	const workers, rounds = 64, 20
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := sched.MinPriority + sched.Priority(w%31)
			for r := 0; r < rounds; r++ {
				payload := []byte(fmt.Sprintf("w%d-r%d", w, r))
				got, err := cl.Invoke("echo", "echo", payload, p)
				if err != nil {
					errs[w] = fmt.Errorf("round %d: %w", r, err)
					return
				}
				if !bytes.Equal(got, payload) {
					errs[w] = fmt.Errorf("round %d: cross-talk: sent %q got %q", r, payload, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
	if got := cl.Inflight(); got != 0 {
		t.Errorf("inflight = %d after storm", got)
	}
	if n := stripesWithTraffic(cl); n < 2 {
		t.Errorf("storm used %d stripe(s); expected the pool to spread", n)
	}
}
