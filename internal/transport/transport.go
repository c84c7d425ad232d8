// Package transport provides the byte-stream substrate both ORBs run on:
// real TCP (the paper's loopback-network setup) and an in-process network
// for deterministic, kernel-free benchmarking. Both expose the same
// Dial/Listen interface and the same stream contract — a buffered wire: a
// Write returns once its bytes are queued, not once the peer has read them
// (stream.go) — so the ORBs are transport-agnostic.
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Conn is a bidirectional byte stream between a client and a server. The
// deadlines are net.Conn's: a Read (Write) pending at or begun after t fails
// with os.ErrDeadlineExceeded, the zero time removes the bound, and the stream
// stays usable afterwards.
type Conn interface {
	io.ReadWriteCloser
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept blocks until a connection arrives or the listener closes.
	Accept() (Conn, error)
	// Close stops the listener; blocked Accepts return ErrClosed.
	Close() error
	// Addr returns the bound address, usable with Dial.
	Addr() string
}

// Network creates listeners and connections.
type Network interface {
	// Listen binds addr; for TCP an empty port picks an ephemeral one.
	Listen(addr string) (Listener, error)
	// Dial connects to a listener's address.
	Dial(addr string) (Conn, error)
}

// WriteBuffers writes bufs to c as one logical vectored write: through
// net.Buffers (writev on TCP, one syscall for the batch) when c is a
// net.Conn, and through plain sequential Writes otherwise — the in-process
// stream, and how a fault-injection wrapper sees each frame individually and
// can fault any one of them. Both paths deliver the same byte stream to the
// peer; on error the returned count is the bytes written before the failure.
// The bufs slice is consumed: its header and elements may be resliced. (The
// ORB's own writer batches into one contiguous buffer and needs a single
// Write.)
func WriteBuffers(c Conn, bufs [][]byte) (int64, error) {
	if w, ok := c.(net.Conn); ok {
		nb := net.Buffers(bufs)
		return nb.WriteTo(w)
	}
	var total int64
	for _, b := range bufs {
		n, err := c.Write(b)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ErrClosed reports use of a closed listener or network endpoint.
var ErrClosed = errors.New("transport: closed")

// ErrNoListener reports a dial to an address nothing is listening on.
var ErrNoListener = errors.New("transport: no listener")

// ErrAddrInUse reports a bind to an already-bound address.
var ErrAddrInUse = errors.New("transport: address in use")

// OpError wraps a transport failure with the operation ("dial", "listen",
// "accept") and the address it targeted, so callers can both inspect the
// cause with errors.Is/As and report where it happened. It mirrors
// net.OpError for the in-process network, which otherwise loses that
// context.
type OpError struct {
	Op   string
	Addr string
	Err  error
}

// Error implements error.
func (e *OpError) Error() string {
	return "transport: " + e.Op + " " + e.Addr + ": " + e.Err.Error()
}

// Unwrap exposes the cause to errors.Is/As.
func (e *OpError) Unwrap() error { return e.Err }

// opError wraps err and records it as a telemetry fault: transport failures
// are exactly the cold-path events the flight recorder exists to capture.
func opError(op, addr string, err error) error {
	e := &OpError{Op: op, Addr: addr, Err: err}
	telemetry.RecordFault("transport."+op, e)
	return e
}

// TCP is the real-network implementation, matching the paper's
// "single machine connected via loopback network" setup.
type TCP struct{}

// Listen implements Network.
func (TCP) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, opError("listen", addr, err)
	}
	return &tcpListener{l: l}, nil
}

// Dial implements Network.
func (TCP) Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, opError("dial", addr, err)
	}
	return c, nil
}

type tcpListener struct{ l net.Listener }

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			// Normal teardown, not a fault.
			return nil, ErrClosed
		}
		return nil, opError("accept", t.Addr(), err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		// Request/reply traffic: never batch small frames.
		_ = tc.SetNoDelay(true)
	}
	return c, nil
}

func (t *tcpListener) Close() error { return t.l.Close() }
func (t *tcpListener) Addr() string { return t.l.Addr().String() }

// Inproc is an in-process network: Dial returns one end of a buffered
// full-duplex stream (stream.go) whose other end is delivered to the
// listener. It gives the benchmarks a deterministic, kernel-free transport
// that behaves like the loopback socket the paper measured over.
type Inproc struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
	next      int
}

// NewInproc returns an empty in-process network.
func NewInproc() *Inproc {
	return &Inproc{listeners: make(map[string]*inprocListener)}
}

// Listen implements Network. An empty addr allocates "inproc-N".
func (n *Inproc) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr == "" {
		n.next++
		addr = fmt.Sprintf("inproc-%d", n.next)
	}
	if _, dup := n.listeners[addr]; dup {
		return nil, opError("listen", addr, ErrAddrInUse)
	}
	l := &inprocListener{net: n, addr: addr, backlog: make(chan Conn, 16)}
	n.listeners[addr] = l
	return l, nil
}

// Dial implements Network.
func (n *Inproc) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	l := n.listeners[addr]
	n.mu.Unlock()
	if l == nil {
		return nil, opError("dial", addr, ErrNoListener)
	}
	client, server := newStreamPair()
	select {
	case l.backlog <- server:
		select {
		case <-l.done():
			l.drain() // closed around the hand-off: nobody will accept it
		default:
		}
		return client, nil
	case <-l.done():
		return nil, opError("dial", addr, ErrClosed)
	}
}

type inprocListener struct {
	net     *Inproc
	addr    string
	backlog chan Conn

	mu     sync.Mutex
	closed chan struct{}
}

func (l *inprocListener) done() chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed == nil {
		l.closed = make(chan struct{})
	}
	return l.closed
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done():
		return nil, ErrClosed
	}
}

func (l *inprocListener) Close() error {
	l.mu.Lock()
	if l.closed == nil {
		l.closed = make(chan struct{})
	}
	select {
	case <-l.closed:
		l.mu.Unlock()
		return nil
	default:
	}
	close(l.closed)
	l.mu.Unlock()
	l.drain()

	l.net.mu.Lock()
	delete(l.net.listeners, l.addr)
	l.net.mu.Unlock()
	return nil
}

// drain closes the connections dialled but never accepted, so their clients
// see the listener go instead of waiting on a peer that will never read.
func (l *inprocListener) drain() {
	for {
		select {
		case c := <-l.backlog:
			_ = c.Close()
		default:
			return
		}
	}
}

func (l *inprocListener) Addr() string { return l.addr }
