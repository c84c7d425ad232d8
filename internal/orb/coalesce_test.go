package orb

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corba"
	"repro/internal/sched"
	"repro/internal/transport"
)

// countingWriter is a scripted writerConn: it records every Write as the
// bytes it carried, can fail from a given write on, and can park writes
// behind a gate so a test can pile senders up while one is "on the wire".
type countingWriter struct {
	mu      sync.Mutex
	writes  [][]byte
	failOn  int           // 1-based write index to fail from; 0 = never
	gate    chan struct{} // non-nil: every Write first receives from it
	failErr error
}

func newCountingWriter() *countingWriter {
	return &countingWriter{failErr: errors.New("scripted write failure")}
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.gate != nil {
		<-w.gate
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes = append(w.writes, append([]byte(nil), p...))
	if w.failOn != 0 && len(w.writes) >= w.failOn {
		return 0, w.failErr
	}
	return len(p), nil
}

// SetWriteDeadline completes writerConn; the scripted writer has no clock.
func (w *countingWriter) SetWriteDeadline(time.Time) error { return nil }

// calls returns how many Writes reached the connection.
func (w *countingWriter) calls() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.writes)
}

// stream returns everything written, in order.
func (w *countingWriter) stream() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return bytes.Join(w.writes, nil)
}

// waitFor spins until cond holds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 2_000_000; i++ {
		if cond() {
			return
		}
		runtime.Gosched()
	}
	t.Fatal("condition never reached")
}

// countYields replaces a writer's yield with a counter.
func countYields(w *connWriter) *int {
	n := new(int)
	w.yield = func() { *n++ }
	return n
}

// TestWriterLoneSenderDirect pins the lock-step half of the policy: a sender
// that is alone writes its own bytes — one write per frame, no yield, no
// batch buffer ever allocated — and so does an inline sender.
func TestWriterLoneSenderDirect(t *testing.T) {
	conn := newCountingWriter()
	w := newConnWriter(conn, nil)
	yields := countYields(w)
	for i, mode := range []sendMode{sendAlone, sendAlone, sendInline, sendAlone, sendInline} {
		frame := []byte(fmt.Sprintf("frame-%d", i))
		if err, _ := w.write(frame, mode); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if got := conn.calls(); got != i+1 {
			t.Fatalf("after %d lone frames the connection saw %d writes, want one each", i+1, got)
		}
	}
	if *yields != 0 {
		t.Errorf("lone senders yielded %d times, want 0", *yields)
	}
	if w.batch != nil || w.spare != nil {
		t.Error("lone senders allocated a batch buffer")
	}
	if got := conn.stream(); string(got) != "frame-0frame-1frame-2frame-3frame-4" {
		t.Errorf("stream = %q", got)
	}
}

// TestWriterBatchesConcurrentSenders pins the pipelined half: 16 senders on
// one P, each returning as soon as its frame is appended, go out in a
// handful of writes — the flusher's one yield lets every runnable sender
// land its frames first — with every frame intact and each sender's frames
// in its own order.
func TestWriterBatchesConcurrentSenders(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	conn := newCountingWriter()
	w := newConnWriter(conn, nil)

	const senders, rounds = 16, 50
	const frameLen = len("<00:00>")
	flushes0, frames0 := coalesceFlushTotal.Value(), coalesceFramesTotal.Value()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err, _ := w.write([]byte(fmt.Sprintf("<%02d:%02d>", s, r)), sendBatched); err != nil {
					t.Errorf("sender %d round %d: %v", s, r, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	waitFor(t, func() bool { w.mu.Lock(); defer w.mu.Unlock(); return !w.busy })

	const frames = senders * rounds
	if got := conn.calls(); got > frames/4 {
		t.Errorf("%d frames took %d writes, want at most %d", frames, got, frames/4)
	}
	if got := coalesceFramesTotal.Value() - frames0; got != frames {
		t.Errorf("coalesce_frames_total moved by %d, want %d", got, frames)
	}
	if got := coalesceFlushTotal.Value() - flushes0; got != int64(conn.calls()) {
		t.Errorf("coalesce_flush_total moved by %d for %d writes", got, conn.calls())
	}
	for _, b := range conn.writes {
		if n := len(b) / frameLen; n > maxBatchFrames {
			t.Errorf("one write carried %d frames, over the %d-frame bound", n, maxBatchFrames)
		}
	}
	// Every frame arrived whole, once, and per sender in order.
	next := make([]int, senders)
	stream := conn.stream()
	if len(stream) != frames*frameLen {
		t.Fatalf("stream is %d bytes, want %d", len(stream), frames*frameLen)
	}
	for off := 0; off < len(stream); off += frameLen {
		var s, r int
		if _, err := fmt.Sscanf(string(stream[off:off+frameLen]), "<%02d:%02d>", &s, &r); err != nil {
			t.Fatalf("torn frame %q at %d", stream[off:off+frameLen], off)
		}
		if r != next[s] {
			t.Fatalf("sender %d frame %d arrived when %d was due", s, r, next[s])
		}
		next[s]++
	}
}

// TestWriterFramesBehindABusyWire pins who flushes what: frames appended
// while another sender owns the wire return at once and go out, together and
// in order, in that owner's next pass; an inline sender waits its turn and
// then writes alone.
func TestWriterFramesBehindABusyWire(t *testing.T) {
	conn := newCountingWriter()
	conn.gate = make(chan struct{})
	w := newConnWriter(conn, nil)

	first := make(chan error, 1)
	go func() { err, _ := w.write([]byte("first"), sendAlone); first <- err }()
	waitFor(t, func() bool { w.mu.Lock(); defer w.mu.Unlock(); return w.busy })
	for _, f := range []string{"second", "third"} {
		if err, _ := w.write([]byte(f), sendBatched); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
	inline := make(chan error, 1)
	go func() { err, _ := w.write([]byte("inline"), sendInline); inline <- err }()

	conn.gate <- struct{}{} // the direct write of "first"
	conn.gate <- struct{}{} // the owner's next pass
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	conn.gate <- struct{}{} // the inline sender, once the wire is free
	if err := <-inline; err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "secondthird", "inline"}
	if len(conn.writes) != len(want) {
		t.Fatalf("writes = %q, want %q", conn.writes, want)
	}
	for i := range want {
		if string(conn.writes[i]) != want[i] {
			t.Fatalf("writes = %q, want %q", conn.writes, want)
		}
	}
}

// TestWriterBatchBounds pins the two limits: a sender that finds the batch
// full waits for the next one, and a frame too large to batch is written
// directly, never copied.
func TestWriterBatchBounds(t *testing.T) {
	conn := newCountingWriter()
	conn.gate = make(chan struct{}, 64)
	w := newConnWriter(conn, nil)

	head := make(chan error, 1)
	go func() { err, _ := w.write([]byte("h"), sendAlone); head <- err }()
	waitFor(t, func() bool { w.mu.Lock(); defer w.mu.Unlock(); return w.busy })
	done := make(chan error, maxBatchFrames+1)
	for i := 0; i <= maxBatchFrames; i++ {
		go func() { err, _ := w.write([]byte("q"), sendBatched); done <- err }()
	}
	waitFor(t, func() bool { w.mu.Lock(); defer w.mu.Unlock(); return w.frames == maxBatchFrames })
	for i := 0; i < 3; i++ {
		conn.gate <- struct{}{}
	}
	if err := <-head; err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= maxBatchFrames; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { w.mu.Lock(); defer w.mu.Unlock(); return !w.busy })
	if got := []int{len(conn.writes[0]), len(conn.writes[1]), len(conn.writes[2])}; got[0] != 1 || got[1] != maxBatchFrames || got[2] != 1 {
		t.Errorf("write sizes = %v, want [1 %d 1]: the sender past the bound rides the next batch", got, maxBatchFrames)
	}

	big := make([]byte, maxBatchBytes+1)
	conn.gate <- struct{}{}
	if err, _ := w.write(big, sendBatched); err != nil {
		t.Fatal(err)
	}
	if last := conn.writes[len(conn.writes)-1]; len(last) != len(big) {
		t.Errorf("oversized frame went out as a %d-byte write", len(last))
	}
	if cap(w.batch.B) > maxBatchBytes {
		t.Errorf("batch buffer grew to %d bytes: the oversized frame was copied", cap(w.batch.B))
	}
}

// TestWriterErrorOwnership pins single ownership of a wire fault: the one
// sender whose write failed sees owner=true, frames batched behind it are
// dropped without a second report, an inline sender gets the error itself,
// and every later write fails fast.
func TestWriterErrorOwnership(t *testing.T) {
	conn := newCountingWriter()
	conn.gate = make(chan struct{}, 8)
	conn.failOn = 1
	w := newConnWriter(conn, nil)

	type res struct {
		err   error
		owner bool
	}
	first := make(chan res, 1)
	go func() { err, own := w.write([]byte("first"), sendAlone); first <- res{err, own} }()
	waitFor(t, func() bool { w.mu.Lock(); defer w.mu.Unlock(); return w.busy })
	if err, own := w.write([]byte("second"), sendBatched); err != nil || own {
		t.Fatalf("batched behind the doomed write: (%v, %v), want (nil, false)", err, own)
	}
	inline := make(chan res, 1)
	go func() { err, own := w.write([]byte("oneway"), sendInline); inline <- res{err, own} }()
	conn.gate <- struct{}{}

	if r := <-first; !errors.Is(r.err, conn.failErr) || !r.owner {
		t.Errorf("failing sender got (%v, %v), want the scripted failure with ownership", r.err, r.owner)
	}
	if r := <-inline; !errors.Is(r.err, conn.failErr) || r.owner {
		t.Errorf("inline sender got (%v, %v), want the error without ownership", r.err, r.owner)
	}
	if err, own := w.write([]byte("late"), sendBatched); !errors.Is(err, conn.failErr) || own {
		t.Errorf("write after failure: (%v, %v), want the sticky error without ownership", err, own)
	}
	if conn.calls() != 1 {
		t.Errorf("dead writer reached the connection %d times, want 1", conn.calls())
	}
	if w.frames != 0 || w.batch != nil || w.spare != nil {
		t.Error("dead writer still holds batched frames")
	}
}

// TestWriterFlushErrorOwnership is the same rule for a failing batch flush:
// the flusher — and nobody whose frame it carried — owns the fault.
func TestWriterFlushErrorOwnership(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	conn := newCountingWriter()
	conn.failOn = 1
	w := newConnWriter(conn, nil)

	const senders = 8
	owners := make(chan bool, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, own := w.write([]byte("doomed"), sendBatched)
			owners <- own
		}()
	}
	wg.Wait()
	close(owners)
	n := 0
	for own := range owners {
		if own {
			n++
		}
	}
	if n != 1 {
		t.Errorf("%d senders claimed the failed flush, want exactly 1", n)
	}
}

// breakableNet hands out connections whose writes fail once broken is set.
type breakableNet struct {
	transport.Network
	broken *atomic.Bool
	err    error
}

type breakableConn struct {
	transport.Conn
	net *breakableNet
}

func (n *breakableNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return breakableConn{c, n}, nil
}

func (c breakableConn) Write(p []byte) (int, error) {
	if c.net.broken.Load() {
		return 0, c.net.err
	}
	return c.Conn.Write(p)
}

// TestOnewayWriteErrorSurfacesSynchronously drives the inline mode end to
// end: a oneway whose write fails reports that write's error from the call
// itself — no reply will ever carry it — with another invocation in flight
// on the connection or not.
func TestOnewayWriteErrorSurfacesSynchronously(t *testing.T) {
	for _, busy := range []bool{false, true} {
		inner := transport.NewInproc()
		srv := startEchoServer(t, inner, "", ServerConfig{})
		gate, entered := make(chan struct{}), make(chan struct{}, 1)
		srv.RegisterServant("slow", corba.ServantFunc(func(op string, in []byte) ([]byte, error) {
			entered <- struct{}{}
			<-gate
			return in, nil
		}))
		net := &breakableNet{Network: inner, broken: new(atomic.Bool), err: errors.New("scripted wire fault")}
		cl := dial(t, net, srv.Addr(), ClientConfig{})
		if err := cl.InvokeOneway("echo", "echo", []byte("fine"), sched.NormPriority); err != nil {
			t.Fatalf("busy=%v: healthy oneway: %v", busy, err)
		}
		pending := make(chan error, 1)
		if busy {
			go func() {
				_, err := cl.Invoke("slow", "wait", []byte("x"), sched.NormPriority)
				pending <- err
			}()
			<-entered // its request is written and being served
		}
		net.broken.Store(true)
		if err := cl.InvokeOneway("echo", "echo", []byte("lost"), sched.NormPriority); !errors.Is(err, net.err) {
			t.Errorf("busy=%v: oneway over a broken wire returned %v, want its own write error", busy, err)
		}
		close(gate)
		if busy {
			if err := <-pending; err == nil {
				t.Errorf("busy=%v: the invocation in flight on the killed connection succeeded", busy)
			}
		}
	}
}

// TestBatchedEchoEndToEnd runs a pipelined workload — requests and replies
// both batch — and demands full correctness: every caller gets its own
// payload back, the pending table drains, and batches did form.
func TestBatchedEchoEndToEnd(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{Concurrency: 16})
	cl := dial(t, net, srv.Addr(), ClientConfig{})

	flushesBefore := coalesceFlushTotal.Value()
	const workers, rounds = 16, 25
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				payload := []byte(fmt.Sprintf("w%d-r%d", w, r))
				got, err := cl.Invoke("echo", "echo", payload, sched.MinPriority+sched.Priority(w%31))
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
		t.Errorf("inflight = %d after all replies", got)
	}
	if coalesceFlushTotal.Value() == flushesBefore {
		t.Error("coalesce_flush_total did not advance: 16 pipelined callers never formed a batch")
	}
}

// TestServerBatchesOnlyItsOwnConnection pins what a server reply's write mode
// is read from: the requests in flight on its own connection. A batch can
// only merge frames bound for one connection, so a request parked in a
// servant for client B must not send client A's lone reply down the batched
// path — a copy into the batch buffer and a yield before the write.
func TestServerBatchesOnlyItsOwnConnection(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	parked := gatedServant{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	srv.RegisterServant("park", parked)
	clA := dial(t, net, srv.Addr(), ClientConfig{})
	clB := dial(t, net, srv.Addr(), ClientConfig{})
	payload := []byte("lone caller")
	if _, err := clA.Invoke("echo", "echo", payload, sched.NormPriority); err != nil {
		t.Fatal(err)
	}

	errB := make(chan error, 1)
	go func() {
		_, err := clB.Invoke("park", "park", payload, sched.NormPriority)
		errB <- err
	}()
	<-parked.entered
	flushes := coalesceFlushTotal.Value()
	if _, err := clA.Invoke("echo", "echo", payload, sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	if d := coalesceFlushTotal.Value() - flushes; d != 0 {
		t.Errorf("a lone caller's round trip flushed %d batches while another connection had a request in flight, want 0", d)
	}
	close(parked.gate)
	if err := <-errB; err != nil {
		t.Fatal(err)
	}
}

// TestBatchedConnDeathFailsOnce is TestMuxConnDeathFailsAllPendingOnce for
// the batched path: a wire cut stranding a whole batch of senders must still
// count ONE breaker failure — the wire owner's — not one per sender.
func TestBatchedConnDeathFailsOnce(t *testing.T) {
	net := transport.NewInproc()
	rs := newRawServer(t, net)
	const callers = 8
	rs.serve(func(conn transport.Conn) {
		for i := 0; i < callers; i++ {
			if _, req := readRequest(t, conn); req == nil {
				return
			}
		}
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
		t.Errorf("breaker state = %d after one wire event", st)
	}
}
