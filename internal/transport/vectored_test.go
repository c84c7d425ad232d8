package transport_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/fault"
	"repro/internal/transport"
)

// The vectored write has two delivery paths — net.Conn (writev on TCP) and
// the plain sequential fallback — and the parity contract is that both put
// the identical byte stream on the wire. These tests run the same batches over TCP, the
// in-process network (the fallback: its stream is neither), and a fault
// wrapper (which, exposing only Write, exercises the fallback too, so
// injected faults land on individual frames).

// vecNetworks enumerates the transports the parity tests sweep.
func vecNetworks() []struct {
	name string
	mk   func() transport.Network
	addr string
} {
	return []struct {
		name string
		mk   func() transport.Network
		addr string
	}{
		{name: "tcp", mk: func() transport.Network { return transport.TCP{} }, addr: "127.0.0.1:0"},
		{name: "inproc", mk: func() transport.Network { return transport.NewInproc() }, addr: ""},
	}
}

// echoAccept accepts one connection and streams everything it reads into
// the returned channel when the connection closes.
func collectAccept(t *testing.T, l transport.Listener) <-chan []byte {
	t.Helper()
	out := make(chan []byte, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			out <- nil
			return
		}
		var buf bytes.Buffer
		_, _ = io.Copy(&buf, c)
		out <- buf.Bytes()
	}()
	return out
}

// batches the tests replay on every transport: many small frames, a lone
// frame, empty buffers mixed in, and one large frame.
func vecBatches() [][][]byte {
	big := bytes.Repeat([]byte{0xAB}, 8192)
	return [][][]byte{
		{[]byte("one"), []byte("two"), []byte("three"), []byte("four")},
		{[]byte("lone-frame")},
		{{}, []byte("a"), {}, []byte("b")},
		{big, []byte("tail")},
	}
}

func flatten(bufs [][]byte) []byte {
	var all []byte
	for _, b := range bufs {
		all = append(all, b...)
	}
	return all
}

// clone deep-copies a batch: WriteBuffers consumes its argument.
func clone(bufs [][]byte) [][]byte {
	out := make([][]byte, len(bufs))
	for i, b := range bufs {
		out[i] = append([]byte(nil), b...)
	}
	return out
}

// TestWriteBuffersParity writes identical batches over TCP and inproc and
// demands the byte stream and reported count match on both.
func TestWriteBuffersParity(t *testing.T) {
	for _, nw := range vecNetworks() {
		t.Run(nw.name, func(t *testing.T) {
			for i, batch := range vecBatches() {
				n := nw.mk()
				l, err := n.Listen(nw.addr)
				if err != nil {
					t.Fatal(err)
				}
				got := collectAccept(t, l)
				c, err := n.Dial(l.Addr())
				if err != nil {
					t.Fatal(err)
				}
				want := flatten(batch)
				wrote, err := transport.WriteBuffers(c, clone(batch))
				if err != nil {
					t.Fatalf("batch %d: WriteBuffers: %v", i, err)
				}
				if wrote != int64(len(want)) {
					t.Errorf("batch %d: wrote %d bytes, want %d", i, wrote, len(want))
				}
				c.Close()
				if b := <-got; !bytes.Equal(b, want) {
					t.Errorf("batch %d: stream mismatch: got %d bytes, want %d", i, len(b), len(want))
				}
				l.Close()
			}
		})
	}
}

// TestWriteBuffersPartialWriteFault drives a batch through the fault
// wrapper with partial writes forced on: the wrapper exposes only Write, so
// WriteBuffers degrades to the sequential path and the injected fault cuts
// one frame. The contract, on both underlying transports: the reported
// count is a strict prefix of the batch, the error chains to
// fault.ErrInjected, and the peer received exactly the bytes counted.
func TestWriteBuffersPartialWriteFault(t *testing.T) {
	for _, nw := range vecNetworks() {
		t.Run(nw.name, func(t *testing.T) {
			fn := fault.New(nw.mk(), fault.Config{Seed: 42, PartialWriteProb: 1})
			l, err := fn.Listen(nw.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			got := collectAccept(t, l)
			c, err := fn.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			batch := [][]byte{
				[]byte("frame-one"), []byte("frame-two"), []byte("frame-three"),
			}
			want := flatten(batch)
			wrote, err := transport.WriteBuffers(c, clone(batch))
			if err == nil {
				t.Fatal("expected an injected partial-write failure")
			}
			if !errors.Is(err, fault.ErrInjected) {
				t.Errorf("error %v does not chain to fault.ErrInjected", err)
			}
			if wrote <= 0 || wrote >= int64(len(want)) {
				t.Errorf("wrote %d bytes, want a strict prefix of %d", wrote, len(want))
			}
			c.Close()
			b := <-got
			if int64(len(b)) != wrote {
				t.Errorf("peer received %d bytes, writer reported %d", len(b), wrote)
			}
			if !bytes.Equal(b, want[:len(b)]) {
				t.Error("received bytes are not a prefix of the batch")
			}
			// The severed connection must fail subsequent batches fast.
			if _, err := transport.WriteBuffers(c, [][]byte{[]byte("more")}); err == nil {
				t.Error("write after sever succeeded")
			}
		})
	}
}
