package orb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"repro/internal/giop"
	"repro/internal/rtzen"
	"repro/internal/sched"
	"repro/internal/transport"
)

// TestRequestFrameMatchesRTZen is a differential test of the two ORBs' request
// frames, RTZen's the oracle: the same key, operation, payload and priority,
// untraced and with no tenant, sent by the component ORB's client and by the
// hand-coded RTZen client, reach a bare Inproc listener as frames equal byte
// for byte except the request id. Neither carries a service context. Keys
// and operations vary in length, so the padding that 8-aligns the payload
// differs from case to case.
func TestRequestFrameMatchesRTZen(t *testing.T) {
	cases := []struct {
		key, op string
		payload int
		prio    sched.Priority
	}{
		{"echo", "echo", 0, sched.NormPriority},
		{"k", "op", 1, sched.MinPriority},
		{"sensor-7", "update", 7, sched.MaxPriority},
		{"a-longer-object-key", "setThresholds", 256, sched.NormPriority + 3},
		{"echo", "echo", giop.DefaultMaxMessage / 2, sched.NormPriority},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s.%s/%dB", tc.key, tc.op, tc.payload), func(t *testing.T) {
			payload := bytes.Repeat([]byte{0x5A}, tc.payload)
			orbFrame := captureRequest(t, func(net transport.Network, addr string) error {
				cl, err := DialClient(ClientConfig{Network: net, Addr: addr})
				if err != nil {
					return err
				}
				defer cl.Close()
				_, err = cl.Invoke(tc.key, tc.op, payload, tc.prio)
				return err
			})
			rtzFrame := captureRequest(t, func(net transport.Network, addr string) error {
				cl, err := rtzen.DialClient(rtzen.ClientConfig{Network: net, Addr: addr})
				if err != nil {
					return err
				}
				defer cl.Close()
				_, err = cl.Invoke(tc.key, tc.op, payload, tc.prio)
				return err
			})
			for _, f := range []struct {
				name  string
				frame []byte
			}{{"orb", orbFrame}, {"rtzen", rtzFrame}} {
				h, err := giop.ParseHeader(f.frame)
				if err != nil {
					t.Fatalf("%s: %v", f.name, err)
				}
				var req giop.Request
				if err := giop.DecodeRequest(h.Order, f.frame[giop.HeaderSize:], &req); err != nil {
					t.Fatalf("%s: %v", f.name, err)
				}
				if req.TraceID != 0 || req.TenantID != 0 {
					t.Errorf("%s: trace %x, tenant %d; want neither", f.name, req.TraceID, req.TenantID)
				}
				// With no service context the id follows the context count.
				if h.Order != giop.BigEndian || binary.BigEndian.Uint32(f.frame[giop.HeaderSize+4:]) != req.RequestID {
					t.Fatalf("%s: request id not where an empty context list puts it", f.name)
				}
				binary.BigEndian.PutUint32(f.frame[giop.HeaderSize+4:], 0)
			}
			if !bytes.Equal(orbFrame, rtzFrame) {
				t.Errorf("request frames differ past the request id:\norb   %x\nrtzen %x", orbFrame, rtzFrame)
			}
		})
	}
}

// captureRequest listens on a fresh Inproc network, runs invoke against it,
// and returns the first frame it sends, answered with an empty reply.
func captureRequest(t *testing.T, invoke func(net transport.Network, addr string) error) []byte {
	t.Helper()
	net := transport.NewInproc()
	ln, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	frames := make(chan []byte, 1)
	go func() {
		defer close(frames)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		frame := make([]byte, giop.HeaderSize)
		if _, err := io.ReadFull(conn, frame); err != nil {
			return
		}
		h, err := giop.ParseHeader(frame)
		if err != nil {
			return
		}
		frame = append(frame, make([]byte, h.Size)...)
		if _, err := io.ReadFull(conn, frame[giop.HeaderSize:]); err != nil {
			return
		}
		var req giop.Request
		if giop.DecodeRequest(h.Order, frame[giop.HeaderSize:], &req) == nil {
			conn.Write(giop.MarshalReply(nil, h.Order, &giop.Reply{RequestID: req.RequestID}))
		}
		frames <- frame
		io.Copy(io.Discard, conn) // until the client closes
	}()
	if err := invoke(net, ln.Addr()); err != nil {
		t.Fatal(err)
	}
	frame, ok := <-frames
	if !ok {
		t.Fatal("no request frame captured")
	}
	return frame
}
