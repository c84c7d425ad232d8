package transport

import (
	"io"
	"os"
	"sync"
	"time"
)

// ringSize is how many bytes one direction of an Inproc connection buffers
// before its writer parks: a socket-buffer-sized constant, large enough that
// a lock-step or moderately pipelined writer never waits for its reader and
// small enough that a peer that stops reading stops the writer within one
// ring (64 KiB measured no faster).
const ringSize = 16 << 10

// ring is one direction of an Inproc connection: a bounded byte queue with
// one writing end and one reading end. Write returns once its bytes are
// buffered and parks only while the ring is full; Read returns what is
// buffered and parks only while it is empty. Everything is guarded by mu; a
// parked goroutine waits on its end's condition variable, so an operation
// that finds nobody parked pays one mutex pair and the (lock-free) broadcast
// check — no channel, no timer, no allocation.
type ring struct {
	mu     sync.Mutex
	rd, wr end
	// wbusy is set while a writer is parked in the middle of a Write larger
	// than the free space; other writers queue behind it, so the bytes of one
	// Write are never interleaved with another's.
	wbusy   bool
	head, n int // offset of the first buffered byte, and how many there are
	buf     [ringSize]byte
}

// end is the state of one end of a ring.
type end struct {
	cond     sync.Cond // signalled on every change a parked goroutine waits for
	closed   bool
	deadline time.Time
	// timer broadcasts cond when a deadline passes with somebody parked. It is
	// created on the first such park and re-armed on later ones, never touched
	// by an operation that does not park.
	timer *time.Timer
}

func newRing() *ring {
	r := new(ring)
	r.rd.cond.L, r.wr.cond.L = &r.mu, &r.mu
	return r
}

// failed reports why an operation on end e must not proceed: e was closed
// locally, or its deadline has passed. It is called with mu held.
func (e *end) failed() error {
	if e.closed {
		return io.ErrClosedPipe
	}
	if !e.deadline.IsZero() && time.Until(e.deadline) <= 0 {
		return os.ErrDeadlineExceeded
	}
	return nil
}

// wait parks the caller until e is signalled: by the peer (data, space,
// close), by a local Close or deadline change, or by the deadline passing.
// It is called with mu held and an unexpired deadline, and returns with mu
// held; the caller re-evaluates everything. The timer is left armed on
// wake-up — a late firing is one broadcast nobody waits for.
func (r *ring) wait(e *end) {
	if !e.deadline.IsZero() {
		d := time.Until(e.deadline)
		if e.timer == nil {
			// The firing takes mu first so that it cannot slip between the
			// caller's expiry check and its Wait.
			e.timer = time.AfterFunc(d, func() {
				r.mu.Lock()
				r.mu.Unlock()
				e.cond.Broadcast()
			})
		} else {
			e.timer.Reset(d)
		}
	}
	e.cond.Wait()
}

func (r *ring) read(p []byte) (int, error) {
	r.mu.Lock()
	for {
		if err := r.rd.failed(); err != nil {
			r.mu.Unlock()
			return 0, err
		}
		if r.n > 0 || len(p) == 0 {
			break
		}
		if r.wr.closed {
			r.mu.Unlock()
			return 0, io.EOF
		}
		r.wait(&r.rd)
	}
	k := copy(p, r.buf[r.head:min(r.head+r.n, ringSize)])
	if k < len(p) && k < r.n {
		k += copy(p[k:], r.buf[:r.n-k])
	}
	r.n -= k
	if r.head = (r.head + k) % ringSize; r.n == 0 {
		r.head = 0 // keep a lock-step exchange at the front of the array
	}
	r.mu.Unlock()
	r.wr.cond.Broadcast()
	return k, nil
}

func (r *ring) write(p []byte) (n int, err error) {
	mine := false // this Write owns wbusy
	r.mu.Lock()
	for {
		if err = r.wr.failed(); err != nil {
			break
		}
		if r.rd.closed {
			err = io.ErrClosedPipe
			break
		}
		if mine || !r.wbusy {
			tail := (r.head + r.n) % ringSize
			k := copy(r.buf[tail:min(tail+ringSize-r.n, ringSize)], p[n:])
			if n+k < len(p) && r.n+k < ringSize {
				k += copy(r.buf[:r.head], p[n+k:])
			}
			n, r.n = n+k, r.n+k
			if n == len(p) {
				break
			}
			r.wbusy, mine = true, true
			r.rd.cond.Broadcast()
		}
		r.wait(&r.wr)
	}
	if mine {
		r.wbusy = false
	}
	r.mu.Unlock()
	r.rd.cond.Broadcast()
	if mine {
		r.wr.cond.Broadcast()
	}
	return n, err
}

// closeEnd closes one end of the ring and wakes everybody parked on either.
func (r *ring) closeEnd(e *end) {
	r.mu.Lock()
	e.closed = true
	for _, e := range [...]*end{&r.rd, &r.wr} {
		if e.timer != nil {
			e.timer.Stop()
		}
	}
	r.mu.Unlock()
	r.rd.cond.Broadcast()
	r.wr.cond.Broadcast()
}

// setDeadline stores end e's deadline (zero: none) and wakes whoever is
// parked on e to take it up.
func (r *ring) setDeadline(e *end, t time.Time) {
	r.mu.Lock()
	e.deadline = t
	r.mu.Unlock()
	e.cond.Broadcast()
}

// stream is one end of an Inproc connection: it reads from one ring and
// writes to the other; its peer holds the same two rings crossed over. The
// contract is a TCP socket's, not a rendezvous pipe's: Write returning means
// the bytes are buffered, not that the peer has read them.
//
//   - Read returns io.EOF once the peer has closed and every byte it wrote
//     has been read; Write to a closed peer returns io.ErrClosedPipe.
//   - After a local Close both return io.ErrClosedPipe, parked calls
//     included; bytes not yet read are dropped, bytes already written stay
//     readable by the peer.
//   - A deadline that has passed fails the call with os.ErrDeadlineExceeded,
//     whether it passed before the call or while it was parked; setting,
//     extending or clearing one takes effect on a parked call.
//   - Concurrent Writes are atomic with respect to each other.
type stream struct {
	in, out *ring
}

// newStreamPair returns the two ends of a new connection.
func newStreamPair() (*stream, *stream) {
	a, b := newRing(), newRing()
	return &stream{in: a, out: b}, &stream{in: b, out: a}
}

func (s *stream) Read(p []byte) (int, error)  { return s.in.read(p) }
func (s *stream) Write(p []byte) (int, error) { return s.out.write(p) }

// Close closes both directions of this end; it is idempotent.
func (s *stream) Close() error {
	s.in.closeEnd(&s.in.rd)
	s.out.closeEnd(&s.out.wr)
	return nil
}

// SetDeadline sets both the read and the write deadline.
func (s *stream) SetDeadline(t time.Time) error {
	s.in.setDeadline(&s.in.rd, t)
	s.out.setDeadline(&s.out.wr, t)
	return nil
}

// SetReadDeadline bounds Read: pending and future calls fail with
// os.ErrDeadlineExceeded once t passes. The zero time removes the bound.
func (s *stream) SetReadDeadline(t time.Time) error {
	s.in.setDeadline(&s.in.rd, t)
	return nil
}

// SetWriteDeadline is SetReadDeadline for Write.
func (s *stream) SetWriteDeadline(t time.Time) error {
	s.out.setDeadline(&s.out.wr, t)
	return nil
}
