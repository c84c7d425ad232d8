package transport_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/transport"
)

// The stream contract: what the ORBs rely on from a transport.Conn, asserted
// by one table over every connection they run on — the in-process ring, a
// loopback TCP socket, and the ring behind the fault-injection wrapper (which
// must forward deadlines and closes faithfully while cutting reads short).
// Nothing here sleeps: a test that has to let an instant pass waits on a
// deadline of the connection's other end, and one that wants a peer parked
// first yields to it, asserting only what holds in either order.

// streamNet is one row of the table.
type streamNet struct {
	name string
	mk   func() transport.Network
	addr string
	// ahead bounds the bytes a writer can be ahead of a reader that has
	// stopped reading; 0 where the kernel sizes the buffers.
	ahead int
	// closedErr is what Read and Write return after a local Close.
	closedErr error
}

func streamNets() []streamNet {
	return []streamNet{
		{name: "inproc", mk: func() transport.Network { return transport.NewInproc() },
			ahead: transport.RingSize, closedErr: io.ErrClosedPipe},
		{name: "tcp", mk: func() transport.Network { return transport.TCP{} }, addr: "127.0.0.1:0",
			closedErr: net.ErrClosed},
		{name: "fault-inproc", mk: func() transport.Network {
			return fault.New(transport.NewInproc(), fault.Config{Seed: 7, PartialReadProb: 0.5, WrapAccepted: true})
		}, ahead: transport.RingSize, closedErr: io.ErrClosedPipe},
	}
}

// deadlineConn is the full deadline surface every row provides.
type deadlineConn interface {
	transport.Conn
	SetDeadline(time.Time) error
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// pair connects a client to a server end on sn; both are closed at cleanup.
func pair(t testing.TB, sn streamNet) (client, server deadlineConn) {
	t.Helper()
	n := sn.mk()
	l, err := n.Listen(sn.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	c, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	s, ok := <-accepted
	if !ok {
		c.Close()
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return c.(deadlineConn), s.(deadlineConn)
}

// forEachStream runs fn on a fresh pair of every row.
func forEachStream(t *testing.T, fn func(t *testing.T, sn streamNet, client, server deadlineConn)) {
	for _, sn := range streamNets() {
		t.Run(sn.name, func(t *testing.T) {
			client, server := pair(t, sn)
			fn(t, sn, client, server)
		})
	}
}

// pattern fills p with the stream's bytes from position pos on; a reader
// checks what it got against the same function.
func pattern(p []byte, pos int) {
	for i := range p {
		p[i] = byte((pos + i) % 251)
	}
}

func checkPattern(t *testing.T, p []byte, pos int) {
	t.Helper()
	for i, b := range p {
		if b != byte((pos+i)%251) {
			t.Fatalf("stream byte %d = %d, want %d", pos+i, b, byte((pos+i)%251))
		}
	}
}

// yield lets a goroutine that was just started reach the call it is about
// to park in. Nothing may depend on whether it got there.
func yield() {
	for i := 0; i < 8; i++ {
		runtime.Gosched()
	}
}

// past is a deadline that has already expired.
var past = time.Unix(1, 0)

// awaitInstant returns once the instant at has passed, using a read deadline
// on c, an end nobody writes to, as the clock.
func awaitInstant(t *testing.T, c deadlineConn, at time.Time) {
	t.Helper()
	_ = c.SetReadDeadline(at)
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("clock read = %v, want deadline exceeded", err)
	}
	_ = c.SetReadDeadline(time.Time{})
}

// TestStreamReadSizes: a read smaller than the write that fed it gets a
// prefix and the rest stays queued; a read larger than what is buffered
// returns what there is without waiting for more.
func TestStreamReadSizes(t *testing.T) {
	forEachStream(t, func(t *testing.T, _ streamNet, client, server deadlineConn) {
		out := make([]byte, 100)
		pattern(out, 0)
		if n, err := client.Write(out); n != 100 || err != nil {
			t.Fatalf("write = %d, %v", n, err)
		}
		pos := 0
		for _, size := range []int{30, 30, 40} {
			in := make([]byte, size)
			if _, err := io.ReadFull(server, in); err != nil {
				t.Fatal(err)
			}
			checkPattern(t, in, pos)
			pos += size
		}
		for i := 0; i < 2; i++ {
			pattern(out[:10], pos+10*i)
			if _, err := client.Write(out[:10]); err != nil {
				t.Fatal(err)
			}
		}
		in := make([]byte, 4096)
		for got := 0; got < 20; {
			n, err := server.Read(in)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 || got+n > 20 {
				t.Fatalf("read returned %d bytes with %d of 20 outstanding", n, 20-got)
			}
			checkPattern(t, in[:n], pos+got)
			got += n
		}
	})
}

// TestStreamLargeWriteSlowReader pushes one Write many times the size of the
// buffer at a reader taking small bites: the bytes arrive in order, and the
// Write cannot have returned while more than the buffer's worth is unread —
// the writer parked, and memory stayed bounded.
func TestStreamLargeWriteSlowReader(t *testing.T) {
	forEachStream(t, func(t *testing.T, sn streamNet, client, server deadlineConn) {
		const total = 1 << 20
		var done atomic.Bool
		werr := make(chan error, 1)
		go func() {
			out := make([]byte, total)
			pattern(out, 0)
			n, err := client.Write(out)
			if err == nil && n != total {
				err = io.ErrShortWrite
			}
			done.Store(true)
			werr <- err
		}()
		in := make([]byte, 1000)
		for got := 0; got < total; {
			if sn.ahead > 0 && done.Load() && got+sn.ahead < total {
				t.Fatalf("Write returned with %d of %d bytes read: more than %d were buffered", got, total, sn.ahead)
			}
			n, err := server.Read(in[:min(len(in), total-got)])
			if err != nil {
				t.Fatal(err)
			}
			checkPattern(t, in[:n], got)
			got += n
		}
		if err := <-werr; err != nil {
			t.Fatal(err)
		}
	})
}

// TestStreamWrapAround keeps one byte resident so the buffer never resets,
// and steps a write+read of a size coprime with the ring through it: the
// write's start visits every offset of the ring, wrapping whenever it falls
// near the end.
func TestStreamWrapAround(t *testing.T) {
	forEachStream(t, func(t *testing.T, _ streamNet, client, server deadlineConn) {
		const step = 1031
		out, in := make([]byte, step), make([]byte, step)
		if _, err := client.Write([]byte{0}); err != nil {
			t.Fatal(err)
		}
		pos := 1
		for i := 0; i < transport.RingSize; i++ {
			pattern(out, pos)
			if _, err := client.Write(out); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(server, in); err != nil {
				t.Fatal(err)
			}
			checkPattern(t, in, pos-1)
			pos += step
		}
	})
}

// TestStreamPeerClose: bytes written before the peer closed are delivered,
// then io.EOF; writing to the closed peer fails.
func TestStreamPeerClose(t *testing.T) {
	forEachStream(t, func(t *testing.T, _ streamNet, client, server deadlineConn) {
		out := make([]byte, 1000)
		pattern(out, 0)
		if _, err := client.Write(out); err != nil {
			t.Fatal(err)
		}
		client.Close()
		got, err := io.ReadAll(server)
		if err != nil {
			t.Fatalf("read after peer close: %v", err)
		}
		if len(got) != len(out) {
			t.Fatalf("read %d bytes before EOF, want %d", len(got), len(out))
		}
		checkPattern(t, got, 0)
		if n, err := server.Read(out); n != 0 || err != io.EOF {
			t.Fatalf("second read after EOF = %d, %v", n, err)
		}
		// TCP learns of the close from the reset its first write provokes.
		for deadline := time.Now().Add(5 * time.Second); err == nil; runtime.Gosched() {
			if _, err = server.Write(out); err == nil && time.Now().After(deadline) {
				t.Fatal("writes to a closed peer keep succeeding")
			}
		}
	})
}

// TestStreamLocalClose: Close fails later calls, and returns a reader parked
// on an empty connection and a writer parked on a full one.
func TestStreamLocalClose(t *testing.T) {
	forEachStream(t, func(t *testing.T, sn streamNet, client, server deadlineConn) {
		rerr, werr := make(chan error, 1), make(chan error, 1)
		go func() {
			_, err := client.Read(make([]byte, 1))
			rerr <- err
		}()
		go func() {
			// Nobody reads: far more than any buffer holds.
			_, err := client.Write(make([]byte, 16<<20))
			werr <- err
		}()
		yield()
		if err := client.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-rerr; !errors.Is(err, sn.closedErr) {
			t.Errorf("parked read after Close = %v, want %v", err, sn.closedErr)
		}
		if err := <-werr; !errors.Is(err, sn.closedErr) {
			t.Errorf("parked write after Close = %v, want %v", err, sn.closedErr)
		}
		if _, err := client.Read(make([]byte, 1)); !errors.Is(err, sn.closedErr) {
			t.Errorf("read after Close = %v, want %v", err, sn.closedErr)
		}
		if _, err := client.Write([]byte{1}); !errors.Is(err, sn.closedErr) {
			t.Errorf("write after Close = %v, want %v", err, sn.closedErr)
		}
		if err := client.Close(); err != nil && !errors.Is(err, sn.closedErr) {
			t.Errorf("second Close = %v", err)
		}
	})
}

// TestStreamDeadlineExpired: a deadline in the past fails the call at once,
// with bytes waiting or room to write all the same, and clearing it restores
// the connection.
func TestStreamDeadlineExpired(t *testing.T) {
	forEachStream(t, func(t *testing.T, _ streamNet, client, server deadlineConn) {
		if _, err := client.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
		_ = server.SetReadDeadline(past)
		if _, err := server.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read past its deadline = %v", err)
		}
		_ = server.SetWriteDeadline(past)
		if _, err := server.Write([]byte("y")); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("write past its deadline = %v", err)
		}
		_ = server.SetDeadline(time.Time{})
		in := make([]byte, 1)
		if _, err := server.Read(in); err != nil || in[0] != 'x' {
			t.Fatalf("read after clearing = %q, %v", in, err)
		}
		if _, err := server.Write([]byte("y")); err != nil {
			t.Fatalf("write after clearing: %v", err)
		}
		// SetDeadline covers both directions.
		_ = server.SetDeadline(past)
		if _, err := server.Read(in); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read under SetDeadline(past) = %v", err)
		}
		if _, err := server.Write(in); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("write under SetDeadline(past) = %v", err)
		}
	})
}

// TestStreamDeadlineWhileParked: a parked read is failed by its deadline
// passing and by a deadline imposed on it; one extended or cleared while it
// is parked no longer fires.
func TestStreamDeadlineWhileParked(t *testing.T) {
	const d = 20 * time.Millisecond
	read := func(c deadlineConn) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := c.Read(make([]byte, 1))
			done <- err
		}()
		yield()
		return done
	}
	forEachStream(t, func(t *testing.T, _ streamNet, client, server deadlineConn) {
		// Expires while parked.
		start := time.Now()
		_ = server.SetReadDeadline(start.Add(d))
		if err := <-read(server); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read parked past its deadline = %v", err)
		}
		if e := time.Since(start); e < d {
			t.Fatalf("deadline fired after %v, before its %v", e, d)
		}

		// Imposed on a read parked without one.
		_ = server.SetReadDeadline(time.Time{})
		done := read(server)
		_ = server.SetReadDeadline(past)
		if err := <-done; !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read parked when a deadline was imposed = %v", err)
		}

		// Extended, then cleared, while parked: the original instant passes
		// (client's own read deadline is the clock) and the read is still
		// there to take the byte written afterwards.
		for _, later := range []time.Time{time.Now().Add(time.Hour), {}} {
			first := time.Now().Add(d)
			_ = server.SetReadDeadline(first)
			done = read(server)
			_ = server.SetReadDeadline(later)
			awaitInstant(t, client, first.Add(d/4))
			select {
			case err := <-done:
				t.Fatalf("read returned %v although its deadline was moved to %v", err, later)
			default:
			}
			if _, err := client.Write([]byte{1}); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatalf("read after its deadline was moved = %v", err)
			}
		}
	})
}

// TestStreamBackpressure: a peer that stops reading stops the writer after
// at most the buffer's worth, and the write deadline then fires — while it
// is parked, or imposed on it afterwards.
func TestStreamBackpressure(t *testing.T) {
	forEachStream(t, func(t *testing.T, sn streamNet, client, _ deadlineConn) {
		const d = 20 * time.Millisecond
		out := make([]byte, 16<<20)
		start := time.Now()
		_ = client.SetWriteDeadline(start.Add(d))
		n, err := client.Write(out)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("write to a stalled peer = %d, %v", n, err)
		}
		if e := time.Since(start); e < d {
			t.Fatalf("deadline fired after %v, before its %v", e, d)
		}
		if n >= len(out) || (sn.ahead > 0 && n != sn.ahead) {
			t.Fatalf("stalled peer accepted %d bytes, want %d (0: fewer than all)", n, sn.ahead)
		}

		_ = client.SetWriteDeadline(time.Time{})
		done := make(chan error, 1)
		go func() {
			_, err := client.Write(out)
			done <- err
		}()
		yield()
		_ = client.SetWriteDeadline(past)
		if err := <-done; !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("write parked when a deadline was imposed = %v", err)
		}
	})
}

// TestStreamConcurrentWritersAtomic: two writers' frames — some larger than
// the buffer, so their writer parks mid-frame — never interleave.
func TestStreamConcurrentWritersAtomic(t *testing.T) {
	forEachStream(t, func(t *testing.T, _ streamNet, client, server deadlineConn) {
		const frames = 40
		sizes := []int{300, transport.RingSize + 4000, 5000}
		var wg sync.WaitGroup
		for id := byte(1); id <= 2; id++ {
			wg.Add(1)
			go func(id byte) {
				defer wg.Done()
				for i := 0; i < frames; i++ {
					f := bytes.Repeat([]byte{id}, sizes[i%len(sizes)])
					f[0] = byte(i % len(sizes)) // the reader learns the size from it
					if _, err := client.Write(f); err != nil {
						t.Errorf("writer %d frame %d: %v", id, i, err)
						return
					}
				}
			}(id)
		}
		head := make([]byte, 2)
		body := make([]byte, transport.RingSize+4000)
		for i := 0; i < 2*frames; i++ {
			if _, err := io.ReadFull(server, head); err != nil {
				t.Fatal(err)
			}
			rest := body[:sizes[head[0]]-2]
			if _, err := io.ReadFull(server, rest); err != nil {
				t.Fatal(err)
			}
			if bytes.Count(rest, head[1:]) != len(rest) {
				t.Fatalf("frame %d, writer %d's, holds another writer's bytes", i, head[1])
			}
		}
		wg.Wait()
	})
}

// TestStreamNoGoroutineAfterClose: a connection that parked callers with
// and without deadlines owns no goroutine once it is closed.
func TestStreamNoGoroutineAfterClose(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		client, server := pair(t, streamNets()[0])
		_ = server.SetReadDeadline(time.Now().Add(time.Millisecond))
		if _, err := server.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal(err)
		}
		_ = server.SetReadDeadline(time.Now().Add(time.Hour))
		done := make(chan error, 1)
		go func() {
			_, err := server.Read(make([]byte, 1))
			done <- err
		}()
		yield()
		client.Close()
		if err := <-done; err != io.EOF {
			t.Fatalf("parked read after peer close = %v", err)
		}
		server.Close()
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestInprocStreamAllocFree pins the uncontended cost: a buffered write and
// the read that drains it allocate nothing, with or without a deadline set
// per call — which is what the resilient client does on every write and
// every led read.
func TestInprocStreamAllocFree(t *testing.T) {
	client, server := pair(t, streamNets()[0])
	out, in := make([]byte, 300), make([]byte, 300)
	exchange := func(from, to deadlineConn, bounded bool) {
		if bounded {
			_ = from.SetWriteDeadline(time.Now().Add(time.Second))
			_ = to.SetReadDeadline(time.Now().Add(time.Second))
		}
		if _, err := from.Write(out); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(to, in); err != nil {
			t.Fatal(err)
		}
	}
	for _, bounded := range []bool{false, true} {
		if a := testing.AllocsPerRun(1000, func() {
			exchange(client, server, bounded)
			exchange(server, client, bounded)
		}); a != 0 {
			t.Errorf("round trip (deadlines %v) allocates %.1f times, want 0", bounded, a)
		}
	}
}

// BenchmarkInprocRoundTrip is the transport's floor under a lock-step ORB:
// 300 bytes each way (a 256-byte echo's frame) against an echoing peer, the
// shape of the benchmark's transport.inproc_rtt_ns probe.
func BenchmarkInprocRoundTrip(b *testing.B) {
	c, peer := pair(b, streamNets()[0])
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		buf := make([]byte, 300)
		for {
			if _, err := io.ReadFull(peer, buf); err != nil {
				return
			}
			if _, err := peer.Write(buf); err != nil {
				return
			}
		}
	}()
	out, in := make([]byte, 300), make([]byte, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(out); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(c, in); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c.Close()
	<-echoed
}
