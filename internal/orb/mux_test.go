package orb

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corba"
	"repro/internal/giop"
	"repro/internal/sched"
	"repro/internal/transport"
)

// rawServer accepts one connection on an in-process network and hands the
// test full control of the GIOP frames flowing both ways — the only way to
// provoke the reply streams a well-behaved server never produces (bogus
// ids, reordered replies, mid-frame cuts).
type rawServer struct {
	t    *testing.T
	ln   transport.Listener
	addr string
}

func newRawServer(t *testing.T, net transport.Network) *rawServer {
	t.Helper()
	ln, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return &rawServer{t: t, ln: ln, addr: ln.Addr()}
}

// serve runs fn on the next accepted connection.
func (rs *rawServer) serve(fn func(conn transport.Conn)) {
	go func() {
		conn, err := rs.ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fn(conn)
	}()
}

// readRequest frames and decodes one inbound request.
func readRequest(t *testing.T, conn transport.Conn) (giop.ByteOrder, *giop.Request) {
	t.Helper()
	h, body, err := giop.ReadMessageLimited(conn, nil, 1<<16)
	if err != nil {
		t.Errorf("raw server read: %v", err)
		return giop.BigEndian, nil
	}
	if h.Type != giop.MsgRequest {
		t.Errorf("raw server: unexpected %v frame", h.Type)
		return giop.BigEndian, nil
	}
	req := new(giop.Request)
	if err := giop.DecodeRequest(h.Order, body, req); err != nil {
		t.Errorf("raw server decode: %v", err)
		return giop.BigEndian, nil
	}
	// Payload aliases the read buffer; copy before the next frame.
	req.Payload = append([]byte(nil), req.Payload...)
	return h.Order, req
}

// writeEcho replies to req with its own payload under the given id.
func writeEcho(t *testing.T, conn transport.Conn, order giop.ByteOrder, id uint32, payload []byte) {
	t.Helper()
	wire := giop.MarshalReply(nil, order, &giop.Reply{
		RequestID: id, Status: giop.ReplyNoException, Payload: payload,
	})
	if _, err := conn.Write(wire); err != nil {
		t.Errorf("raw server write: %v", err)
	}
}

// echoUntilClosed answers every request with its own payload until the
// connection ends.
func echoUntilClosed(conn transport.Conn) {
	var req giop.Request
	for {
		h, body, err := giop.ReadMessageLimited(conn, nil, 1<<16)
		if err != nil || h.Type != giop.MsgRequest || giop.DecodeRequest(h.Order, body, &req) != nil {
			return
		}
		wire := giop.MarshalReply(nil, h.Order, &giop.Reply{
			RequestID: req.RequestID, Status: giop.ReplyNoException, Payload: req.Payload,
		})
		if _, err := conn.Write(wire); err != nil {
			return
		}
	}
}

// TestMuxStaleReplyDropped pins the demux's unknown-id path: a reply
// bearing an id that matches no pending entry is counted and dropped, and
// the invocation stream keeps flowing — the stale frame must not wedge the
// leader reading it or complete the wrong caller.
func TestMuxStaleReplyDropped(t *testing.T) {
	net := transport.NewInproc()
	rs := newRawServer(t, net)
	rs.serve(func(conn transport.Conn) {
		for i := 0; i < 3; i++ {
			order, req := readRequest(t, conn)
			if req == nil {
				return
			}
			// A stale reply first (an id nothing is waiting for), then the
			// real one.
			writeEcho(t, conn, order, req.RequestID+0x5000, []byte("stale"))
			writeEcho(t, conn, order, req.RequestID, req.Payload)
		}
	})
	cl := dial(t, net, rs.addr, ClientConfig{})

	staleBefore := muxStaleDropTotal.Value()
	for i := 0; i < 3; i++ {
		payload := []byte(fmt.Sprintf("real-%d", i))
		got, err := cl.Invoke("echo", "echo", payload, sched.NormPriority)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("invoke %d: got %q (stale reply delivered?)", i, got)
		}
	}
	if got := muxStaleDropTotal.Value() - staleBefore; got < 3 {
		t.Errorf("mux_stale_drop_total advanced by %d, want >= 3", got)
	}
	if cl.Inflight() != 0 {
		t.Errorf("inflight = %d after all replies", cl.Inflight())
	}
}

// TestMuxOutOfOrderCompletion pins pipelining itself: two invocations in
// flight at once, replies written in reverse id order, each caller receiving
// exactly its own payload — and the reorder counter advancing, the
// observable proof the completions crossed.
func TestMuxOutOfOrderCompletion(t *testing.T) {
	net := transport.NewInproc()
	rs := newRawServer(t, net)
	rs.serve(func(conn transport.Conn) {
		type pend struct {
			order giop.ByteOrder
			req   *giop.Request
		}
		// Collect both requests before answering either, then reply highest
		// id first (the two submissions race through the client's pipeline,
		// so arrival order is not id order).
		var batch []pend
		for len(batch) < 2 {
			order, req := readRequest(t, conn)
			if req == nil {
				return
			}
			batch = append(batch, pend{order, req})
		}
		if batch[0].req.RequestID > batch[1].req.RequestID {
			batch[0], batch[1] = batch[1], batch[0]
		}
		for i := len(batch) - 1; i >= 0; i-- {
			writeEcho(t, conn, batch[i].order, batch[i].req.RequestID, batch[i].req.Payload)
		}
	})
	cl := dial(t, net, rs.addr, ClientConfig{})

	reorderBefore := muxReorderTotal.Value()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("caller-%d", i))
			got, err := cl.Invoke("echo", "echo", payload, sched.NormPriority)
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, payload) {
				errs[i] = fmt.Errorf("cross-talk: sent %q got %q", payload, got)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
	if got := muxReorderTotal.Value() - reorderBefore; got < 1 {
		t.Errorf("mux_reorder_total advanced by %d, want >= 1", got)
	}
}

// TestMuxConnDeathFailsAllPendingOnce cuts the connection mid-frame with a
// batch of invocations in flight. Every pending invoke must fail exactly
// once with a transport-level error — and the whole wire event must count
// as ONE breaker failure, not one per stranded caller: with a threshold of
// two, eight victims from a single cut must leave the breaker closed.
func TestMuxConnDeathFailsAllPendingOnce(t *testing.T) {
	net := transport.NewInproc()
	rs := newRawServer(t, net)
	const callers = 8
	rs.serve(func(conn transport.Conn) {
		for i := 0; i < callers; i++ {
			if _, req := readRequest(t, conn); req == nil {
				return
			}
		}
		// All callers are now pending. A half-written reply header then a
		// close is an abrupt wire failure (not a clean shutdown).
		hdr := giop.MarshalReply(nil, giop.BigEndian, &giop.Reply{RequestID: 1})
		conn.Write(hdr[:6])
		conn.Close()
	})
	cl := dial(t, net, rs.addr, ClientConfig{
		Resilience: &ResilienceConfig{BreakerThreshold: 2, MaxRetries: 0},
	})

	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cl.Invoke("echo", "echo", []byte("doomed"), sched.NormPriority)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err == nil {
			t.Errorf("caller %d: expected a wire error, got success", i)
		}
	}
	if got := cl.Inflight(); got != 0 {
		t.Errorf("inflight = %d after connection death", got)
	}
	if st := members(cl)[0].brk.State(); st != breakerClosed {
		t.Errorf("breaker state = %d after one wire event; %d victims were each counted as a failure", st, callers)
	}
}

// TestMuxUnsolicitedLocateReplyFailsConnection pins the demux's one
// exchange: the client never sends a LocateRequest, so a LocateReply on its
// connection — even one bearing the id of an invocation in flight — is a
// protocol violation. The connection fails and every tabled invocation
// completes with an error, while the server holds the connection open and
// answers nothing else: none may be left waiting.
func TestMuxUnsolicitedLocateReplyFailsConnection(t *testing.T) {
	net := transport.NewInproc()
	rs := newRawServer(t, net)
	const callers = 4
	hold := make(chan struct{})
	defer close(hold)
	rs.serve(func(conn transport.Conn) {
		var first uint32
		for i := 0; i < callers; i++ {
			_, req := readRequest(t, conn)
			if req == nil {
				return
			}
			if i == 0 {
				first = req.RequestID
			}
		}
		wire := giop.MarshalLocateReply(nil, giop.BigEndian, &giop.LocateReply{
			RequestID: first, Status: giop.LocateObjectHere,
		})
		if _, err := conn.Write(wire); err != nil {
			t.Errorf("raw server write: %v", err)
		}
		<-hold
	})
	cl := dial(t, net, rs.addr, ClientConfig{})

	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := cl.Invoke("echo", "echo", []byte("x"), sched.NormPriority)
			errs <- err
		}()
	}
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "unexpected LocateReply") {
				t.Errorf("invocation %d = %v, want the protocol violation", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d invocations still waiting after an unsolicited LocateReply", callers-i, callers)
		}
	}
	if got := cl.Inflight(); got != 0 {
		t.Errorf("inflight = %d after the connection failed", got)
	}
}

// TestMuxStorm64 is the -race storm, on one, two and four processors: 64
// invokers hammer one multiplexed connection of a default client concurrently,
// every reply must land with its own caller, the pending table must drain
// completely, and no caller may come out of the pipeline unbound — each one's
// own goroutine registered its entry, so each one can be led to its reply.
func TestMuxStorm64(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			net := transport.NewInproc()
			srv := startEchoServer(t, net, "", ServerConfig{Concurrency: 16})
			cl := dial(t, net, srv.Addr(), ClientConfig{})
			unboundBefore := awaitUnbound.Value()

			const invokers = 64
			const perInvoker = 25
			var wg sync.WaitGroup
			errs := make([]error, invokers)
			for i := 0; i < invokers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for j := 0; j < perInvoker; j++ {
						payload := []byte(fmt.Sprintf("invoker-%d-call-%d", i, j))
						got, err := cl.Invoke("echo", "echo", payload, sched.NormPriority)
						if err != nil {
							errs[i] = fmt.Errorf("call %d: %w", j, err)
							return
						}
						if !bytes.Equal(got, payload) {
							errs[i] = fmt.Errorf("call %d: cross-talk: got %q want %q", j, got, payload)
							return
						}
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
				t.Errorf("inflight = %d after storm drained", got)
			}
			if d := awaitUnbound.Value() - unboundBefore; d != 0 {
				t.Errorf("await_unbound_total advanced by %d", d)
			}
			if n, err := cl.App().Errors(); n != 0 {
				t.Errorf("client handler errors: %d (%v)", n, err)
			}
			if n, err := srv.App().Errors(); n != 0 {
				t.Errorf("server handler errors: %d (%v)", n, err)
			}
		})
	}
}

// TestMuxConcurrentInvokersShareOneProcessor pins fairness between closed-loop
// callers on one processor over the in-process transport, where a write
// readies its reader directly: the callers must take turns. A sender that
// took itself for the only one (its peers' replies matched, the peers not yet
// run again) would write directly, and every hop of its round trip would hand
// the thread straight to the next, round after round, until the scheduler's
// 10 ms time slice ran out — over a thousand consecutive completions by one
// caller while fifteen wait.
func TestMuxConcurrentInvokersShareOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	cl := dial(t, net, srv.Addr(), ClientConfig{})

	const callers, rounds = 16, 1000
	order := make([]int32, callers*rounds) // order[k]: who completed k-th
	var seq atomic.Int64
	var wg sync.WaitGroup
	for c := int32(0); c < callers; c++ {
		wg.Add(1)
		go func(c int32) {
			defer wg.Done()
			body := make([]byte, 256)
			for i := 0; i < rounds; i++ {
				if _, err := cl.Invoke("echo", "echo", body, sched.NormPriority); err != nil {
					t.Errorf("caller %d: %v", c, err)
					return
				}
				order[seq.Add(1)-1] = c
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// The tail, where the early finishers are gone, is left out.
	longest, run := 0, 0
	for k := 1; k < len(order)/2; k++ {
		if run++; order[k] != order[k-1] {
			run = 0
		}
		longest = max(longest, run+1)
	}
	if longest > 64 {
		t.Errorf("one caller completed %d invocations in a row while %d others waited", longest, callers-1)
	}
}

// TestMuxRemoteProxyConcurrentSends pins the ORB surface remote.Proxy leans
// on: many goroutines pushing oneways through one shared client must all
// multiplex over the single connection with every message arriving exactly
// once (the remote package's own concurrency test rides this same path).
func TestMuxRemoteProxyConcurrentSends(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{Concurrency: 16})

	const senders = 16
	const perSender = 20
	var mu sync.Mutex
	seen := make(map[string]int)
	all := make(chan struct{})
	srv.RegisterServant("sink", corba.ServantFunc(func(op string, payload []byte) ([]byte, error) {
		mu.Lock()
		seen[string(payload)]++
		if len(seen) == senders*perSender && seen[string(payload)] == 1 {
			close(all)
		}
		mu.Unlock()
		return nil, nil
	}))
	cl := dial(t, net, srv.Addr(), ClientConfig{})

	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perSender; j++ {
				payload := []byte(fmt.Sprintf("s%d-m%d", i, j))
				if err := cl.InvokeOneway("sink", "push", payload, sched.NormPriority); err != nil {
					t.Errorf("sender %d msg %d: %v", i, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	// Oneways complete at write time; wait for the servant to see the last.
	select {
	case <-all:
	case <-time.After(2 * time.Second):
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != senders*perSender {
		t.Errorf("delivered %d distinct messages, want %d", len(seen), senders*perSender)
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("message %q delivered %d times", k, n)
		}
	}
}
