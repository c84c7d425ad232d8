package transport_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/fault"
	"repro/internal/giop"
	"repro/internal/transport"
)

// These tests pin the frame-buffer release contract across every transport
// the ORBs run on: a read loop that pulls frames with FrameReader.NextFrame
// must end with zero live FrameBufs — whatever the wire did to the framing.
// The fault variant injects benign partial reads so frames arrive sliced at
// arbitrary header/body boundaries, exercising the resumable paths that a
// clean TCP or in-process stream rarely hits.

// frameNetworks enumerates clean TCP, clean inproc, and a fault-wrapped
// inproc whose reads deliver random short prefixes on both sides.
func frameNetworks() []struct {
	name  string
	mk    func() transport.Network
	addr  string
	stats func() fault.Stats
} {
	var fn *fault.Network
	return []struct {
		name  string
		mk    func() transport.Network
		addr  string
		stats func() fault.Stats
	}{
		{name: "tcp", mk: func() transport.Network { return transport.TCP{} }, addr: "127.0.0.1:0"},
		{name: "inproc", mk: func() transport.Network { return transport.NewInproc() }, addr: ""},
		{
			name: "fault-partial-read",
			mk: func() transport.Network {
				fn = fault.New(transport.NewInproc(), fault.Config{
					Seed:            42,
					PartialReadProb: 0.8,
					WrapAccepted:    true,
				})
				return fn
			},
			addr:  "",
			stats: func() fault.Stats { return fn.Stats() },
		},
	}
}

// TestFrameReleaseParity streams a mixed batch of GIOP frames through each
// network into a NextFrame loop and demands: every body reassembles intact,
// and no FrameBuf is live once the stream drains.
func TestFrameReleaseParity(t *testing.T) {
	payloads := [][]byte{
		[]byte("tiny"),
		bytes.Repeat([]byte{0x5A}, 300),   // spans several injected short reads
		bytes.Repeat([]byte{0xC3}, 5000),  // crosses the 4096 size class
		{},                                // empty payload still frames
		bytes.Repeat([]byte{0x11}, 70000), // top size classes
	}
	for _, nw := range frameNetworks() {
		t.Run(nw.name, func(t *testing.T) {
			giop.SetFrameLeakCheck(true)
			defer giop.SetFrameLeakCheck(false)

			n := nw.mk()
			l, err := n.Listen(nw.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()

			type result struct {
				bodies [][]byte
				err    error
			}
			done := make(chan result, 1)
			go func() {
				c, err := l.Accept()
				if err != nil {
					done <- result{err: err}
					return
				}
				fr := giop.NewFrameReader(c, 0)
				var res result
				for {
					h, fb, err := fr.NextFrame()
					if err == io.EOF {
						break
					}
					if err != nil {
						res.err = err
						break
					}
					req := new(giop.Request)
					if err := giop.DecodeRequest(h.Order, fb.Body(), req); err != nil {
						res.err = fmt.Errorf("decode: %w", err)
						fb.Release()
						break
					}
					// The handler keeps the payload past the frame's release,
					// so it must detach — the copy is the explicit escape.
					res.bodies = append(res.bodies, append([]byte(nil), req.Payload...))
					fb.Release()
				}
				// Close before reporting: the leak check on the main
				// goroutine must observe any partial frame already released.
				fr.Close()
				c.Close()
				done <- res
			}()

			c, err := n.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range payloads {
				wire := giop.MarshalRequest(nil, giop.LittleEndian, &giop.Request{
					RequestID: uint32(i + 1), Operation: "echo", ObjectKey: []byte("k"), Payload: p,
				})
				if _, err := c.Write(wire); err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
			}
			c.Close()

			res := <-done
			if res.err != nil {
				t.Fatal(res.err)
			}
			if len(res.bodies) != len(payloads) {
				t.Fatalf("reassembled %d frames, want %d", len(res.bodies), len(payloads))
			}
			for i, p := range payloads {
				if !bytes.Equal(res.bodies[i], p) {
					t.Errorf("frame %d: body mismatch (%d bytes vs %d)", i, len(res.bodies[i]), len(p))
				}
			}
			if leaks := giop.CheckFrameLeaks(); len(leaks) != 0 {
				t.Errorf("live frames after drain: %v", leaks)
			}
			if nw.stats != nil {
				if s := nw.stats(); s.PartialReads == 0 {
					t.Error("fault network injected no partial reads; scenario did not exercise resume paths")
				}
			}
		})
	}
}

// TestFrameAbandonMidFrameParity kills the connection partway through a
// frame body on each network; the reader must surface an error, and Close
// must return the partial frame to its pool.
func TestFrameAbandonMidFrameParity(t *testing.T) {
	for _, nw := range frameNetworks() {
		t.Run(nw.name, func(t *testing.T) {
			giop.SetFrameLeakCheck(true)
			defer giop.SetFrameLeakCheck(false)

			n := nw.mk()
			l, err := n.Listen(nw.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()

			errc := make(chan error, 1)
			go func() {
				c, err := l.Accept()
				if err != nil {
					errc <- err
					return
				}
				fr := giop.NewFrameReader(c, 0)
				var lerr error
				for {
					_, fb, err := fr.NextFrame()
					if err != nil {
						lerr = err
						break
					}
					fb.Release()
				}
				fr.Close()
				c.Close()
				errc <- lerr
			}()

			c, err := n.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			wire := giop.MarshalRequest(nil, giop.BigEndian, &giop.Request{
				RequestID: 1, Operation: "op", ObjectKey: []byte("k"),
				Payload: bytes.Repeat([]byte{0xEE}, 600),
			})
			// Header plus half the body, then hang up mid-frame.
			if _, err := c.Write(wire[:giop.HeaderSize+200]); err != nil {
				t.Fatal(err)
			}
			c.Close()

			err = <-errc
			if err == nil || err == io.EOF {
				t.Fatalf("read loop ended with %v, want a mid-frame error", err)
			}
			if leaks := giop.CheckFrameLeaks(); len(leaks) != 0 {
				t.Errorf("abandoned reader leaked frames: %v", leaks)
			}
		})
	}
}
