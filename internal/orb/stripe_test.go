package orb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/corba"
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
// a 4-stripe pool and demands the load lands on more than one stripe: the
// selector picks by in-flight load alone, and between idle stripes its two
// random choices spread the calls.
func TestStripesSpreadBands(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{Concurrency: 8})
	cl := dial(t, net, srv.Addr(), ClientConfig{Channels: 4})

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

// TestStripeFailoverIsolated kills one stripe's idle connection and demands
// the failure stays contained: nobody reads a connection nobody waits on, so
// the first invocation routed to the dead stripe finds it — that one surfaces
// a transport error, one failure on that stripe's breaker — and every other
// call succeeds, the survivor's breaker stays closed, and the dead stripe
// redials and rejoins the pool once load drifts back to it.
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
	dead := cl.stripes[0].cur.Load()
	dead.conn.Close()

	failed, redialled := 0, false
	for i := 0; i < 400 && !redialled; i++ {
		p := sched.MinPriority + sched.Priority(i%31)
		payload := []byte(fmt.Sprintf("i%d", i))
		got, err := cl.Invoke("echo", "echo", payload, p)
		switch {
		case err != nil && !retriable(err):
			t.Fatalf("invoke %d after stripe death: %v is not a transport error", i, err)
		case err != nil:
			failed++
		case !bytes.Equal(got, payload):
			t.Fatalf("invoke %d: got %q", i, got)
		}
		mc := cl.stripes[0].cur.Load()
		redialled = mc != nil && mc != dead
	}
	if failed != 1 {
		t.Errorf("%d invocations failed, want exactly the one that found the dead connection", failed)
	}
	if !redialled {
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
		Channels: 4,
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

// TestOnewaysKeepOrderOnOneConnection pins the ordering contract the ORB
// keeps: on one connection (the default client) a caller's sequential
// oneways reach a Synchronous server, which runs each request on its
// connection's reader, in the order they were sent — at one priority, and
// alternating two, where each band's arrivals and all of them keep
// submission order. Stripes promise no order between them, so the contract
// is the single connection's.
func TestOnewaysKeepOrderOnOneConnection(t *testing.T) {
	for _, row := range []struct {
		name  string
		bands []sched.Priority
	}{
		{"one_band", []sched.Priority{sched.NormPriority}},
		{"two_bands", []sched.Priority{sched.NormPriority, sched.MaxPriority - 1}},
	} {
		t.Run(row.name, func(t *testing.T) {
			const n = 2000
			net := transport.NewInproc()
			srv := startEchoServer(t, net, "", ServerConfig{Synchronous: true})
			var mu sync.Mutex
			all := make([]uint32, 0, n)
			perBand := map[byte][]uint32{}
			done := make(chan struct{})
			srv.RegisterServant("sink", corba.ServantFunc(func(_ string, in []byte) ([]byte, error) {
				mu.Lock()
				defer mu.Unlock()
				seq := binary.BigEndian.Uint32(in)
				perBand[in[4]] = append(perBand[in[4]], seq)
				if all = append(all, seq); len(all) == n {
					close(done)
				}
				return nil, nil
			}))
			cl := dial(t, net, srv.Addr(), ClientConfig{})
			var payload [5]byte
			for i := uint32(0); i < n; i++ {
				prio := row.bands[int(i)%len(row.bands)]
				binary.BigEndian.PutUint32(payload[:4], i)
				payload[4] = byte(prio)
				if err := cl.InvokeOneway("sink", "push", payload[:], prio); err != nil {
					t.Fatalf("oneway %d: %v", i, err)
				}
			}
			// Oneways complete at write time; wait for the servant to see the last.
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				mu.Lock()
				defer mu.Unlock()
				t.Fatalf("servant saw %d of %d oneways", len(all), n)
			}
			descents := func(seqs []uint32) (d int) {
				for i := 1; i < len(seqs); i++ {
					if seqs[i] < seqs[i-1] {
						d++
					}
				}
				return d
			}
			if d := descents(all); d != 0 {
				t.Errorf("%d of %d oneways arrived before one sent ahead of them", d, n)
			}
			for band, seqs := range perBand {
				if d := descents(seqs); d != 0 {
					t.Errorf("band %d: %d of %d oneways arrived before one of the band sent ahead of them", band, d, len(seqs))
				}
			}
		})
	}
}
