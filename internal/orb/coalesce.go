package orb

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/giop"
	"repro/internal/telemetry"
)

// This file is the one write path of every ORB connection: client requests
// and server replies alike go through a connWriter, which amortises write
// syscalls by construction and has nothing to configure.
//
// A sender that is alone on the connection — no other invocation in flight,
// as the caller observes from its in-flight count — writes its own bytes
// directly: no copy, no yield, one write per frame, the lock-step path.
// Otherwise the frame is copied into a batch buffer owned by the connection
// and the sender returns at once; the first sender to append becomes the
// flusher, yields one scheduler pass so that every submitter already
// runnable lands its frame too, then writes the lot with one write. Frames
// arriving during that write collect in the second buffer and go out in the
// flusher's next pass. Returning before the flush is what lets the senders
// behind the flusher — callers on the client, port threads on the server —
// fill a batch; the copy is what makes it safe, because the sender's frame
// lives in a scope reclaimed when its handler returns or soon after.

// CoalesceConfig used to opt an endpoint into write coalescing and size its
// batches. Batching is now always on and sizes itself from the traffic.
//
// Deprecated: the type and the Coalesce fields that carry it are ignored;
// they remain so that existing configurations compile.
type CoalesceConfig struct{}

// Batch bounds: a flush carries at most this many frames and bytes. A sender
// that finds the batch full waits for the flusher to take it; a frame too
// large to batch is written directly.
const (
	maxBatchFrames = 32
	maxBatchBytes  = 64 << 10
)

// Write-path metrics, exported at /metrics with the compadres_ prefix. They
// count batched flushes only — a direct write is one frame by definition —
// so coalesce_frames_total / coalesce_flush_total is the mean batch and the
// histogram its distribution. giop's wire_read_frames is the read-side twin.
var (
	coalesceFlushTotal  = telemetry.NewCounter("coalesce_flush_total")
	coalesceFramesTotal = telemetry.NewCounter("coalesce_frames_total")
	coalesceBatchFrames = telemetry.NewHistogram("coalesce_batch_frames")
)

// sendMode is what a sender knows about its frame.
type sendMode int

const (
	// sendBatched: other invocations are in flight on the connection, so
	// more frames are likely on their way; batch with them.
	sendBatched sendMode = iota
	// sendAlone: nothing else is in flight; write directly if the wire is
	// free.
	sendAlone
	// sendInline: the caller reports this frame's own write error (client
	// oneways, server Locate replies); wait for the wire and write directly.
	sendInline
)

// modeFor picks a frame's mode from what its sender knows: whether it must
// report the write's own error, and how many invocations (its own included)
// are in flight on the connection.
func modeFor(inline bool, inflight int64) sendMode {
	switch {
	case inline:
		return sendInline
	case inflight <= 1:
		return sendAlone
	}
	return sendBatched
}

// writerConn is the slice of transport.Conn the writer needs; tests
// substitute counting and scripted writers.
type writerConn interface {
	Write(p []byte) (int, error)
	SetWriteDeadline(t time.Time) error
}

// connWriter serialises writes to one connection. At most one goroutine
// owns the wire at a time (busy); it leaves only with the batch empty, so a
// frame appended while the wire is owned is always flushed by that owner and
// its sender need not wait. After a write error the writer is dead: the
// error is sticky, batched frames are dropped, and every later write fails
// fast — a partial frame has desynchronised GIOP framing, so the connection
// is unusable anyway.
type connWriter struct {
	conn writerConn
	// timeout, when non-nil, bounds each write via the connection's write
	// deadline (the client passes its per-invoke timeout; the server nil).
	timeout func() time.Duration
	// yield is the flusher's one scheduler pass before its first write.
	yield func()

	mu   sync.Mutex
	cond sync.Cond // the wire was released, or the batch was taken
	busy bool
	err  error // sticky first write error
	// batch collects frames (allocated on first use); spare is the second
	// buffer, idle or being written by the wire's owner.
	batch, spare *giop.Buffer
	frames       int
}

func newConnWriter(conn writerConn, timeout func() time.Duration) *connWriter {
	w := &connWriter{conn: conn, timeout: timeout, yield: runtime.Gosched}
	w.cond.L = &w.mu
	return w
}

// write sends one frame. The bytes are not referenced after write returns.
// A nil error means the frame was written (sendAlone on a free wire,
// sendInline) or is batched behind the wire's owner; a batched frame's write
// error reaches the connection, not its sender. Written means taken by the
// transport, which buffers it, in process as on a socket: nothing here learns
// when the peer reads it. owner reports that THIS call hit the writer's first
// write error: exactly one caller per wire fault sees it, and only it may
// charge the fault to a breaker and kill the connection, however many senders
// the fault strands.
func (w *connWriter) write(frame []byte, mode sendMode) (err error, owner bool) {
	if len(frame) > maxBatchBytes {
		mode = sendInline
	}
	w.mu.Lock()
	for w.err == nil && w.busy && (mode == sendInline || w.full(len(frame))) {
		w.cond.Wait()
	}
	if w.err != nil {
		err = w.err
		w.mu.Unlock()
		return err, false
	}
	if !w.busy && mode != sendBatched {
		w.busy = true
		w.mu.Unlock()
		err = w.out(frame)
		w.mu.Lock()
		return w.release(err)
	}
	if w.batch == nil {
		w.batch = giop.GetBuffer()
	}
	w.batch.B = append(w.batch.B, frame...)
	w.frames++
	if w.busy {
		w.mu.Unlock()
		return nil, false
	}
	w.busy = true
	w.mu.Unlock()
	w.yield()
	w.mu.Lock()
	return w.release(nil)
}

// full reports whether a frame of n bytes must wait for the next batch.
func (w *connWriter) full(n int) bool {
	return w.frames >= maxBatchFrames || (w.frames > 0 && len(w.batch.B)+n > maxBatchBytes)
}

// release is how the wire's owner leaves: it flushes batches until none is
// left, frees the wire, and records the first error. It is called with mu
// held and returns with it released.
func (w *connWriter) release(err error) (error, bool) {
	for err == nil && w.frames > 0 {
		out, n := w.batch, int64(w.frames)
		w.batch, w.spare, w.frames = w.spare, nil, 0
		w.cond.Broadcast()
		w.mu.Unlock()
		if err = w.out(out.B); err == nil {
			coalesceFlushTotal.Inc()
			coalesceFramesTotal.Add(n)
			coalesceBatchFrames.Record(n)
		}
		out.B = out.B[:0]
		w.mu.Lock()
		if w.batch == nil {
			w.batch = out
		} else {
			w.spare = out
		}
	}
	w.busy = false
	if err != nil {
		w.err = err
		for _, b := range [...]*giop.Buffer{w.batch, w.spare} {
			if b != nil {
				giop.PutBuffer(b)
			}
		}
		w.batch, w.spare, w.frames = nil, nil, 0
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	return err, err != nil
}

// out writes p to the connection, bounded by the write deadline when one is
// configured.
func (w *connWriter) out(p []byte) error {
	if w.timeout != nil {
		if t := w.timeout(); t > 0 {
			_ = w.conn.SetWriteDeadline(time.Now().Add(t))
		}
	}
	_, err := w.conn.Write(p)
	return err
}
