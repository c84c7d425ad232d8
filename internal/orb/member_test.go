package orb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corba"
	"repro/internal/sched"
	"repro/internal/transport"
)

// members returns the client's member slots.
func members(cl *Client) []*member { return *cl.members.Load() }

// startCountingServer is startEchoServer with an echo servant that counts
// the invocations it answers: where the traffic landed.
func startCountingServer(t *testing.T, net transport.Network, addr string, cfg ServerConfig) (*Server, *atomic.Int64) {
	t.Helper()
	srv := startEchoServer(t, net, addr, cfg)
	served := new(atomic.Int64)
	srv.RegisterServant("echo", corba.ServantFunc(func(op string, in []byte) ([]byte, error) {
		served.Add(1)
		return corba.EchoServant{}.Invoke(op, in)
	}))
	return srv, served
}

// invokeEveryBand drives four rounds of one echo invocation per priority
// band through cl and checks every reply.
func invokeEveryBand(t *testing.T, cl *Client) {
	t.Helper()
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
}

// TestStripesSpreadBands drives traffic across every priority band through
// a two-member client and demands the load lands on more than one
// connection, every invocation counted at the servants: the selector picks
// by in-flight load alone, and between idle members its two random choices
// spread the calls.
func TestStripesSpreadBands(t *testing.T) {
	net := transport.NewInproc()
	_, n0 := startCountingServer(t, net, "r0", ServerConfig{Concurrency: 8})
	_, n1 := startCountingServer(t, net, "r1", ServerConfig{Concurrency: 8})
	cl := dial(t, net, "", ClientConfig{Addrs: []string{"r0", "r1"}})

	invokeEveryBand(t, cl)
	if n0.Load() == 0 || n1.Load() == 0 {
		t.Errorf("traffic split r0 %d / r1 %d; the load is not spreading", n0.Load(), n1.Load())
	}
	if got, want := n0.Load()+n1.Load(), int64(4*int(sched.MaxPriority)); got != want {
		t.Errorf("members served %d invocations, want %d", got, want)
	}
}

// TestReplicaStripesSpreadMembers dials a client whose address list names
// one of two members twice: the client holds one slot per distinct member,
// in list order, and both members carry traffic, counted at their servants.
func TestReplicaStripesSpreadMembers(t *testing.T) {
	net := transport.NewInproc()
	_, n0 := startCountingServer(t, net, "r0", ServerConfig{Concurrency: 8})
	_, n1 := startCountingServer(t, net, "r1", ServerConfig{Concurrency: 8})
	cl := dial(t, net, "", ClientConfig{Addrs: []string{"r0", "r1", "r0"}})

	if got := cl.Members(); len(got) != 2 || got[0] != "r0" || got[1] != "r1" {
		t.Fatalf("members = %v, want [r0 r1]", got)
	}
	if ms := members(cl); len(ms) != 2 {
		t.Fatalf("%d member slots, want 2", len(ms))
	}
	invokeEveryBand(t, cl)
	if n0.Load() == 0 || n1.Load() == 0 {
		t.Errorf("traffic split r0 %d / r1 %d; both members should carry load", n0.Load(), n1.Load())
	}
}

// TestReplicaRetargetGrowsMembers dials a client on one member and retargets it to
// three: each new member gets a slot of its own, dialled when first picked,
// and all three serve invocations, counted at their servants — supervised or
// not.
func TestReplicaRetargetGrowsMembers(t *testing.T) {
	for _, row := range []struct {
		name string
		res  *ResilienceConfig
	}{{"unsupervised", nil}, {"supervised", &ResilienceConfig{}}} {
		t.Run(row.name, func(t *testing.T) {
			net := transport.NewInproc()
			var served [3]*atomic.Int64
			addrs := []string{"m0", "m1", "m2"}
			for i, a := range addrs {
				_, served[i] = startCountingServer(t, net, a, ServerConfig{})
			}
			cl := dial(t, net, "", ClientConfig{Addrs: addrs[:1], Resilience: row.res})
			if _, err := cl.Invoke("echo", "echo", []byte("one"), sched.NormPriority); err != nil {
				t.Fatal(err)
			}
			cl.Retarget(addrs)
			for i := 0; i < 300; i++ {
				if _, err := cl.Invoke("echo", "echo", []byte("three"), sched.NormPriority); err != nil {
					t.Fatalf("invoke %d: %v", i, err)
				}
			}
			for i, n := range served {
				if n.Load() == 0 {
					t.Errorf("member %s served nothing after the retarget", addrs[i])
				}
			}
			if ms := members(cl); len(ms) != 3 {
				t.Errorf("%d member slots, want 3", len(ms))
			}
		})
	}
}

// TestReplicaOpErrorNamesItsMember severs the second member's connection on a
// two-member client: the invocation that finds it dead surfaces a
// *transport.OpError naming that member, not the first.
func TestReplicaOpErrorNamesItsMember(t *testing.T) {
	net := transport.NewInproc()
	startEchoServer(t, net, "r0", ServerConfig{})
	startEchoServer(t, net, "r1", ServerConfig{})
	cl := dial(t, net, "", ClientConfig{Addrs: []string{"r0", "r1"}})
	// The first invocation starts the Transport, which dials every member.
	if _, err := cl.Invoke("echo", "echo", []byte("warmup"), sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	members(cl)[1].cur.Load().conn.Close()
	for i := 0; i < 200; i++ {
		_, err := cl.Invoke("echo", "echo", []byte("x"), sched.NormPriority)
		if err == nil {
			continue
		}
		var op *transport.OpError
		if !errors.As(err, &op) {
			t.Fatalf("invoke %d: %v is not a *transport.OpError", i, err)
		}
		if op.Addr != "r1" {
			t.Errorf("the fault on r1's connection names %q: %v", op.Addr, err)
		}
		return
	}
	t.Fatal("no invocation found r1's severed connection in 200")
}

// TestReplicaFailoverIsolated kills one member's idle connection and demands
// the failure stays contained: nobody reads a connection nobody waits on, so
// the first invocation routed to the dead member finds it — that one surfaces
// a transport error, one failure on that member's breaker — and every other
// call succeeds, the survivor's breaker stays closed, and the dead member
// redials and rejoins once load drifts back to it.
func TestReplicaFailoverIsolated(t *testing.T) {
	net := transport.NewInproc()
	startEchoServer(t, net, "r0", ServerConfig{Concurrency: 8})
	startEchoServer(t, net, "r1", ServerConfig{Concurrency: 8})
	cl := dial(t, net, "", ClientConfig{
		Addrs:      []string{"r0", "r1"},
		Resilience: &ResilienceConfig{BreakerThreshold: 4, MaxRetries: 0},
	})

	// The Transport component instantiates (and dials every member) on the
	// first submission; warm it up before poking at connection state.
	if _, err := cl.Invoke("echo", "echo", []byte("warmup"), sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	ms := members(cl)
	for _, m := range ms {
		if !m.live() {
			t.Fatalf("member %s not connected after warm-up", m.addr)
		}
	}
	// Sever r0's wire out from under it.
	dead := ms[0].cur.Load()
	dead.conn.Close()

	failed, redialled := 0, false
	for i := 0; i < 400 && !redialled; i++ {
		p := sched.MinPriority + sched.Priority(i%31)
		payload := []byte(fmt.Sprintf("i%d", i))
		got, err := cl.Invoke("echo", "echo", payload, p)
		switch {
		case err != nil && !retriable(err):
			t.Fatalf("invoke %d after the connection died: %v is not a transport error", i, err)
		case err != nil:
			failed++
		case !bytes.Equal(got, payload):
			t.Fatalf("invoke %d: got %q", i, got)
		}
		if failed == 1 && ms[1].brk.fails.Load() != 0 {
			t.Fatalf("the survivor's breaker was charged for r0's dead connection")
		}
		mc := ms[0].cur.Load()
		redialled = mc != nil && mc != dead
	}
	if failed != 1 {
		t.Errorf("%d invocations failed, want exactly the one that found the dead connection", failed)
	}
	if !redialled {
		t.Error("r0 never redialled; a member whose connection died should rejoin")
	}
	for _, m := range ms {
		if s := m.brk.State(); s != breakerClosed {
			t.Errorf("member %s breaker state = %d after recovery, want closed", m.addr, s)
		}
	}
}

// TestReplicaStorm is the full-stack soak: 64 concurrent invokers across
// all priority bands, two members, requests and replies batching. Every
// reply must match its request, the pending tables must drain and both
// members must have served.
func TestReplicaStorm(t *testing.T) {
	net := transport.NewInproc()
	_, n0 := startCountingServer(t, net, "r0", ServerConfig{Concurrency: 16})
	_, n1 := startCountingServer(t, net, "r1", ServerConfig{Concurrency: 16})
	cl := dial(t, net, "", ClientConfig{Addrs: []string{"r0", "r1"}})

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
	for _, m := range members(cl) {
		if got := m.inflight.Load(); got != 0 {
			t.Errorf("member %s inflight = %d after storm", m.addr, got)
		}
	}
	if n0.Load() == 0 || n1.Load() == 0 {
		t.Errorf("storm split r0 %d / r1 %d; expected both members to serve", n0.Load(), n1.Load())
	}
}

// TestOnewaysKeepOrderOnOneConnection pins the ordering contract the ORB
// keeps: on one connection (the default client) a caller's sequential
// oneways reach a Synchronous server, which runs each request on its
// connection's reader, in the order they were sent — at one priority, and
// alternating two, where each band's arrivals and all of them keep
// submission order. Members promise no order between them, so the contract
// is the single connection's — every single-server client's, and each
// member's of a multi-member client.
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
