package orb

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corba"
	"repro/internal/giop"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// This file is the client half of the multiplexed invocation core: per
// connection one batching writer (coalesce.go), one pending table and one
// leader token. Requests carry monotonically increasing ids; whichever waiting
// caller holds the token reads the connection, matches each inbound reply to
// its in-flight pending-table entry by id and completes that caller's channel
// (its own reply it simply returns with), so many invocations pipeline over a
// single GIOP connection and complete out of order. No goroutine belongs to a
// connection: one nobody is waiting on is not read.

// Mux counters, exported at /metrics with the compadres_ prefix.
var (
	// muxStaleDropTotal counts inbound replies that matched no pending-table
	// entry: replies to invocations that timed out or were retried, or ids
	// corrupted in flight. They are dropped without disturbing the stream.
	muxStaleDropTotal = telemetry.NewCounter("mux_stale_drop_total")
	// muxReorderTotal counts replies that completed out of submission order
	// — the observable proof that pipelining is live on the connection.
	muxReorderTotal = telemetry.NewCounter("mux_reorder_total")
)

// muxLabel marks connection-death sweeps in the flight recorder.
var muxLabel = telemetry.Label("orb.client.mux")

// Pending-entry states. Exactly one party moves an entry out of armed —
// the demux leader (or connection failer) via complete, or the waiting caller
// via cancel — so the completion channel receives at most one result.
const (
	pendingArmed int32 = iota
	pendingDone
	pendingCancelled
)

// muxPending is one in-flight invocation: the slot a reply id resolves to.
// Entries are pooled, each with the cap-1 completion channel it was born with.
// An entry returns to the pool only after its single result has been received,
// so a recycled channel is always empty. An entry whose outcome is uncertain —
// its caller cancelled it (deadline expiry), so a demux leader or the
// connection failer may still hold the pointer — is abandoned to the collector
// instead, channel and all: a late write to an abandoned cap-1 channel is
// harmless, while a late write to a recycled one would hand some other
// invocation a stranger's reply.
type muxPending struct {
	id    uint32
	done  chan invokeResult
	state atomic.Int32
	// mc is the connection the entry registered on, nil until then: its
	// caller registers it and then, on the same goroutine, volunteers as that
	// connection's demux leader. Nobody else reads it.
	mc *muxConn
}

// complete delivers res to the waiting caller if the entry is still armed.
// It must not touch the entry after the channel send: the receiver recycles
// the entry as soon as the result arrives. It reports false without sending
// when the entry already left armed — a result carrying a frame reference
// then stays with the caller of complete, which must release it.
func (pe *muxPending) complete(res invokeResult) bool {
	if !pe.state.CompareAndSwap(pendingArmed, pendingDone) {
		return false
	}
	pe.done <- res
	return true
}

// pendingPool recycles entries, and their channels, across invocations.
var pendingPool = sync.Pool{New: func() any {
	return &muxPending{done: make(chan invokeResult, 1)}
}}

// getPending returns an armed entry.
func getPending(id uint32) *muxPending {
	pe := pendingPool.Get().(*muxPending)
	pe.id = id
	pe.mc = nil
	pe.state.Store(pendingArmed)
	return pe
}

// result receives the entry's single result and recycles the entry; for a
// caller that knows a completion is committed or on its way.
func (pe *muxPending) result() invokeResult {
	res := <-pe.done
	putPending(pe)
	return res
}

// putPending recycles an entry whose channel is empty: only the caller that
// received its single result, or that never let it out of its hands, may call
// this.
func putPending(pe *muxPending) { pendingPool.Put(pe) }

// muxConn is one multiplexed connection: the pending table, the writer, and
// the leader token its waiting callers pass around to demultiplex its replies.
// A wire fault from either direction fails every pending entry exactly once
// with a transport-level error, counts a single failure against the owning
// member's breaker, and detaches the connection from its member so the next
// invoke routed there triggers one supervised redial — not one per in-flight
// caller. A connection that dies with nobody waiting on it is found dead by
// the next invocation written to it, which fails the same way.
type muxConn struct {
	cl   *Client
	m    *member
	conn transport.Conn
	w    *connWriter

	// mu guards the pending table and the kill state. fail sets deadErr and
	// dead and sweeps the table in one critical section, so a register either
	// lands before the sweep and is collected by it, or sees dead and is
	// refused; no entry can strand. dead is atomic so that readers outside
	// the lock can check it. quiet is notified when the table empties or the
	// connection dies: retire waits for either.
	mu      sync.Mutex
	pend    map[uint32]*muxPending
	dead    atomic.Bool
	deadErr error
	quiet   sched.Signal

	// Awaiting callers select on their completion channel and on leaderCh;
	// whoever wins the single token reads frames off fr, completing other
	// callers' entries, until its own reply arrives — then it hands the token
	// to the next waiter. The caller demultiplexes its own reply, as RTZen's
	// waiter does, so a round trip has no reader-to-caller rendezvous. Token
	// handoff through the channel serialises access to fr and maxDone. It is
	// safe because every caller registers its entry on its own goroutine
	// before it awaits: an entry in the table always has a waiter to lead.
	leaderCh chan struct{}
	fr       *giop.FrameReader
	// maxDone is the highest request id completed so far; a completion below
	// it is an out-of-order reply.
	maxDone uint32
}

// newMuxConn wraps conn for m, its leader token parked.
func newMuxConn(m *member, conn transport.Conn) *muxConn {
	cl := m.cl
	mc := &muxConn{cl: cl, m: m, conn: conn, pend: make(map[uint32]*muxPending, 16)}
	mc.w = newConnWriter(conn, cl.invokeTimeout)
	mc.fr = giop.NewFrameReader(conn, giop.DefaultMaxMessage)
	mc.leaderCh = make(chan struct{}, 1)
	mc.leaderCh <- struct{}{}
	return mc
}

// register places an armed entry in the pending table and notes the
// connection on it. It fails if the connection already died; the entry is then
// still owned by the caller.
func (mc *muxConn) register(pe *muxPending) error {
	mc.mu.Lock()
	if mc.dead.Load() {
		err := mc.deadErr
		mc.mu.Unlock()
		return err
	}
	pe.mc = mc
	mc.pend[pe.id] = pe
	mc.mu.Unlock()
	mc.m.inflight.Add(1)
	return nil
}

// take removes the entry tabled under id and returns it: for the demux, a
// reply's entry (want nil); for a caller abandoning its entry on deadline
// expiry, want itself, if it is still tabled here. It returns nil when there
// is none.
func (mc *muxConn) take(id uint32, want *muxPending) *muxPending {
	mc.mu.Lock()
	pe := mc.pend[id]
	if pe == nil || want != nil && pe != want {
		mc.mu.Unlock()
		return nil
	}
	delete(mc.pend, id)
	emptied := len(mc.pend) == 0
	mc.mu.Unlock()
	mc.m.inflight.Add(-1)
	if emptied {
		mc.quiet.Notify()
	}
	return pe
}

// retire drains the connection out of service: it detaches from its member
// immediately — a removed member is routed no further invocation — and
// closes once the in-flight invocations drain, bounded by grace, or
// when the client closes. The eventual close is ErrClosed-classified, so
// retiring a healthy connection during a Retarget never charges the member's
// breaker and loses nothing that was already accepted onto the wire: a
// tabled invocation is waited for, and a oneway — written, so buffered by
// the transport, but in no table — is still read by the server, because a
// closed end's bytes drain before its peer sees the end of the stream. The
// caller holds retargetMu, and the client is not closed.
func (mc *muxConn) retire(grace time.Duration) {
	mc.m.detach(mc)
	cl := mc.cl
	cl.retiring[mc] = struct{}{}
	go func() {
		mc.quiet.Wait(func() bool { // nothing tabled, or dead
			mc.mu.Lock()
			defer mc.mu.Unlock()
			return len(mc.pend) == 0
		}, time.Now().Add(grace))
		mc.fail(fmt.Errorf("orb client: retired: %w", corba.ErrClosed))
		cl.retargetMu.Lock()
		delete(cl.retiring, mc)
		cl.retargetMu.Unlock()
	}()
}

// send hands one request frame to the connection's writer. The client's only
// caller writes directly; otherwise the frame is batched and send returns
// before it is on the wire. "Only caller" counts everyone inside an
// invocation, not the member's pending table: a caller whose reply was
// matched but who has not run again yet is about to send its next request,
// and on one processor a sender that took itself for alone would hand the
// thread on, hop by hop, for a whole time slice while the others starve
// (over the in-process stream: 16 callers, p99.9 30-40 ms). inline (oneways)
// waits for the frame's own write so its error is the caller's to report.
// When the client has a per-invoke deadline the write itself is bounded by it
// too — a peer that stopped reading must not wedge the submit path forever.
// Any write error (a partial frame desynchronises GIOP framing) kills the
// connection; many senders may observe the same error but only the one that
// hit it reports it, preserving one-breaker-failure-per-wire-event.
func (mc *muxConn) send(wire []byte, inline bool) error {
	err, owner := mc.w.write(wire, modeFor(inline, mc.cl.inflight.Load()))
	if err != nil {
		// Classified like a read error: a write is how a connection that died
		// with nobody waiting on it is found out.
		err = wireErr("write", mc.m.addr, err)
	}
	if owner {
		mc.sendFailed(err)
	}
	return err
}

// sendFailed records one write fault, charges one breaker failure to the
// member, and kills the connection. The error a leader's read then ends with
// finds the connection already dead and is not counted again.
func (mc *muxConn) sendFailed(err error) {
	telemetry.RecordFault("orb.client.write", err)
	if mc.cl.res != nil {
		mc.m.brk.Failure()
	}
	mc.fail(fmt.Errorf("orb client: write: %w", mc.cl.mapWireErr(err)))
}

// fail kills the connection once: every pending entry completes with err
// (wrapped as a transport-level failure), the socket closes, the client
// detaches the connection, and — under supervision — a single breaker
// failure is recorded for the whole batch.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.dead.Load() {
		mc.mu.Unlock()
		return
	}
	mc.deadErr = err
	mc.dead.Store(true)
	victims := mc.pend
	mc.pend = nil
	mc.mu.Unlock()
	mc.quiet.Notify()

	_ = mc.conn.Close()
	select {
	case <-mc.leaderCh:
		// Nobody is reading, so the reader's buffers are ours to give back; a
		// leader gives them back itself when its read fails.
		mc.fr.Close()
		mc.leaderCh <- struct{}{}
	default:
	}
	mc.m.detach(mc)
	if n := len(victims); n > 0 {
		telemetry.Record(telemetry.EvState, muxLabel, 0, 0, uint64(n))
	}
	for _, pe := range victims {
		mc.m.inflight.Add(-1)
		pe.complete(invokeResult{err: err})
	}
}

// handleFrame demultiplexes one inbound frame for the leader whose entry is
// own: decode, match, complete. A reply's payload still aliases the arrival
// frame (pooled, one owner) — ownership of the frame transfers to the caller on
// a successful complete, and the bytes are not copied on this path. If the
// frame resolves own, the result is returned directly with mine=true instead
// of taking the completion-channel rendezvous. Replies bearing unknown ids —
// stale answers to abandoned invocations, or corruption — are counted,
// released, and dropped without wedging the stream. fatal reports that the
// frame killed the connection (fail has run; every tabled entry, including
// own, completes with the error).
func (mc *muxConn) handleFrame(h giop.Header, fb *giop.FrameBuf, rep *giop.Reply, own *muxPending) (res invokeResult, mine, fatal bool) {
	switch h.Type {
	case giop.MsgReply:
		if err := giop.DecodeReply(h.Order, fb.Body(), rep); err != nil {
			fb.Release()
			mc.readFailed(err)
			return invokeResult{}, false, true
		}
		if rep.TraceID != 0 {
			// The reply carried the server's span for a trace we opened:
			// record it so the client flight recorder holds the full
			// stitched round trip.
			telemetry.Record(telemetry.EvNetRecv, clientReplyLabel, rep.TraceID, rep.SpanID, uint64(len(fb.Body())))
		}
		pe := mc.take(rep.RequestID, nil)
		if pe == nil {
			fb.Release()
			muxStaleDropTotal.Inc()
			return invokeResult{}, false, false
		}
		mc.noteOrder(rep.RequestID)
		mc.brkSuccess()
		return mc.deliver(pe, replyResult(rep, fb), own)
	case giop.MsgCloseConnection:
		fb.Release()
		mc.fail(fmt.Errorf("orb client: %w", corba.ErrClosed))
		return invokeResult{}, false, true
	default:
		// The client solicits replies only: a request-direction message, a
		// LocateReply or an unknown type on the reply stream is a protocol
		// violation; the connection cannot be trusted.
		fb.Release()
		mc.fail(fmt.Errorf("orb client: unexpected %v message", h.Type))
		return invokeResult{}, false, true
	}
}

// deliver completes a taken entry. The leader's own entry short-circuits:
// the result is returned to the caller directly, skipping the channel
// rendezvous (the entry is moved to done by CAS so cancellation and failure
// paths observe a consistent state).
func (mc *muxConn) deliver(pe *muxPending, r invokeResult, own *muxPending) (invokeResult, bool, bool) {
	if pe == own {
		if pe.state.CompareAndSwap(pendingArmed, pendingDone) {
			return r, true, false
		}
		// A racing completion already committed (connection failer): its
		// result is the entry's fate; this frame reference never transferred.
		r.release()
		return <-pe.done, true, false // lead recycles the entry
	}
	if !pe.complete(r) {
		// The caller cancelled between take and complete: the frame
		// reference never transferred.
		r.release()
		muxStaleDropTotal.Inc()
	}
	return invokeResult{}, false, false
}

// lead runs the caller-as-leader demux loop. The caller holds the token; it
// first re-checks its completion channel (the outgoing leader may have
// completed this entry and released the token in either order — leading with
// a completed entry would wedge on a read no reply answers), then reads
// frames, completing other callers' entries, until its own reply arrives or
// its invoke deadline (zero: none) expires. Exactly one token exists per
// connection; every exit path returns it to leaderCh (cap 1, never blocks).
func (mc *muxConn) lead(pe *muxPending, deadline time.Time) invokeResult {
	select {
	case res := <-pe.done:
		mc.leaderCh <- struct{}{}
		putPending(pe)
		return res
	default:
	}
	if !deadline.IsZero() {
		_ = mc.conn.SetReadDeadline(deadline)
	}
	var rep giop.Reply
	for {
		h, fb, err := mc.fr.NextFrame()
		if err != nil && !deadline.IsZero() && errors.Is(err, os.ErrDeadlineExceeded) && !mc.dead.Load() {
			// Our own invoke deadline fired while leading. The resumable
			// FrameReader kept any partial frame; the connection stays up.
			// Hand the token to the next waiter, then resolve our entry the
			// same way a timed-out follower does.
			mc.leaderCh <- struct{}{}
			return mc.cl.expire(pe)
		}
		var res invokeResult
		var mine, fatal bool
		if err != nil {
			mc.readFailed(err)
			fatal = true
		} else {
			res, mine, fatal = mc.handleFrame(h, fb, &rep, pe)
		}
		if fatal {
			// fail completed every tabled entry — ours included.
			mc.fr.Close()
			mc.leaderCh <- struct{}{}
			return pe.result()
		}
		if mine {
			mc.leaderCh <- struct{}{}
			putPending(pe)
			return res
		}
	}
}

// noteOrder maintains the reorder counter: a leader observing a completion
// below the highest completed id has seen replies cross.
func (mc *muxConn) noteOrder(id uint32) {
	if id < mc.maxDone {
		muxReorderTotal.Inc()
		return
	}
	mc.maxDone = id
}

// brkSuccess records a completed exchange with the member's breaker, if
// supervised.
func (mc *muxConn) brkSuccess() {
	if mc.cl.res != nil {
		mc.m.brk.Success()
	}
}

// readFailed classifies a leader's read error and kills the connection: a
// clean shutdown (client closed, peer closed between frames) fails pending
// entries with ErrClosed and stays off the fault log; anything else — a
// reply cut off mid-frame, an over-bound body — is a recorded fault that
// also counts one breaker failure.
func (mc *muxConn) readFailed(err error) {
	if err == io.EOF || mc.cl.closed.Load() || cleanClose(err) {
		mc.fail(fmt.Errorf("orb client: read: %w", corba.ErrClosed))
		return
	}
	telemetry.RecordFault("orb.client.read", err)
	if mc.cl.res != nil {
		mc.m.brk.Failure()
	}
	mc.fail(fmt.Errorf("orb client: read: %w", mc.cl.mapWireErr(wireErr("read", mc.m.addr, err))))
}

// replyResult turns a decoded reply into the caller's result. A success's
// payload still aliases the arrival frame; the frame reference rides the
// result to the caller, who releases it after copying the payload out
// (Invoke) or finishing with the view (InvokeView). An exception's message is
// formatted — a copy — and the frame released here: error results never carry
// a frame.
func replyResult(rep *giop.Reply, fb *giop.FrameBuf) invokeResult {
	if rep.Status == giop.ReplyNoException {
		return invokeResult{payload: rep.Payload, frame: fb}
	}
	err := exception(rep.Status, rep.Payload, rep.RetryAfterNs)
	fb.Release()
	return invokeResult{err: err}
}

// exception is the one mapping from a server's answer that is not a success —
// the (status, payload, retryAfter) triple, decoded off the wire or handed
// over by the direct transport — to the error the caller sees. A retry-after
// hint marks a system exception as a shed: it surfaces as a ShedError so the
// retry loop can pace to the server's horizon.
func exception(status giop.ReplyStatus, payload []byte, retryAfterNs int64) error {
	switch {
	case status == giop.ReplyUserException:
		return fmt.Errorf("%w: %s", corba.ErrUserException, payload)
	case retryAfterNs > 0:
		return &ShedError{RetryAfter: time.Duration(retryAfterNs), Detail: string(payload)}
	default:
		return fmt.Errorf("%w: %s", corba.ErrSystemException, payload)
	}
}
