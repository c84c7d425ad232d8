package orb

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/corba"
	"repro/internal/giop"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/transport"
)

// TestInvokeViewZeroPayloadCopies is the zero-copy guard: at steady state,
// InvokeView must move reply payload bytes socket→view with zero counted
// copies — payload_copy_total flat, no frame Detach — while the legacy
// Invoke (which returns a retained slice) is charged exactly one copy per
// call. The pairing keeps the guard honest: if the counter ever silently
// stopped counting, the Invoke half would fail first.
func TestInvokeViewZeroPayloadCopies(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	cl := dial(t, net, srv.Addr(), ClientConfig{})

	payload := bytes.Repeat([]byte{0x7E}, 512)

	// Warm everything (pools, routes, frame classes).
	for i := 0; i < 32; i++ {
		if _, err := cl.Invoke("echo", "echo", payload, sched.NormPriority); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 200
	copiesBefore := payloadCopyTotal.Value()
	detachBefore := giop.ReadFrameStats().Detached
	for i := 0; i < rounds; i++ {
		err := cl.InvokeView("echo", "echo", payload, sched.NormPriority, func(reply memory.Loan) error {
			b, err := reply.Bytes()
			if err != nil {
				return err
			}
			if !bytes.Equal(b, payload) {
				t.Fatalf("round %d: reply mismatch (%d bytes)", i, len(b))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if d := payloadCopyTotal.Value() - copiesBefore; d != 0 {
		t.Errorf("InvokeView charged %d payload copies over %d rounds, want 0", d, rounds)
	}
	if d := giop.ReadFrameStats().Detached - detachBefore; d != 0 {
		t.Errorf("InvokeView detached %d frames, want 0", d)
	}

	// The copying API is charged one copy per non-empty reply.
	copiesBefore = payloadCopyTotal.Value()
	for i := 0; i < 10; i++ {
		if _, err := cl.Invoke("echo", "echo", payload, sched.NormPriority); err != nil {
			t.Fatal(err)
		}
	}
	if d := payloadCopyTotal.Value() - copiesBefore; d != 10 {
		t.Errorf("Invoke charged %d payload copies over 10 rounds, want 10", d)
	}
}

// TestInvokeAllocsAreContractCopies attributes what a remote lock-step
// invocation allocates (synchronous server, in-process transport): nothing
// but the copies a contract asks for. Invoke hands back a slice its caller
// keeps, so it copies the reply out of the frame (consumeReply); a
// corba.EchoServant answers with a fresh copy of its input rather than the
// input itself. A servant that returns its input leaves Invoke's one copy,
// and InvokeView, which lends the reply in place, allocates nothing — on
// one connection or spread over two members, whose selector draws its two
// candidates straight from the member list.
func TestInvokeAllocsAreContractCopies(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; the counts hold in the non-race suite")
	}
	returnsInput := corba.ServantFunc(func(_ string, in []byte) ([]byte, error) { return in, nil })
	payload := bytes.Repeat([]byte{0x5A}, 256)
	for _, tc := range []struct {
		name    string
		servant corba.Servant
		view    bool
		members int
		want    float64
	}{
		{"Invoke/EchoServant", corba.EchoServant{}, false, 1, 2},
		{"Invoke/ReturnsInput", returnsInput, false, 1, 1},
		{"InvokeView/ReturnsInput", returnsInput, true, 1, 0},
		{"InvokeView/ReturnsInput/TwoMembers", returnsInput, true, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewInproc()
			var addrs []string
			for i := 0; i < tc.members; i++ {
				srv, err := NewServer(ServerConfig{Network: net, Synchronous: true})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(srv.Close)
				srv.RegisterServant("echo", tc.servant)
				srv.ServeBackground()
				addrs = append(addrs, srv.Addr())
			}
			cl := dial(t, net, "", ClientConfig{Addrs: addrs})
			view := func(memory.Loan) error { return nil }
			invoke := func() {
				var err error
				if tc.view {
					err = cl.InvokeView("echo", "echo", payload, sched.NormPriority, view)
				} else {
					_, err = cl.Invoke("echo", "echo", payload, sched.NormPriority)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ {
				invoke()
			}
			if got := testing.AllocsPerRun(200, invoke); got != tc.want {
				t.Errorf("%.3f allocs/op, want %.0f", got, tc.want)
			}
		})
	}
}

// TestInvokeViewLoanScope pins the scope rule: the loan dies with the view's
// return, a leaked loan answers ErrStale, and Detach inside the view is the
// sanctioned escape.
func TestInvokeViewLoanScope(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	cl := dial(t, net, srv.Addr(), ClientConfig{})

	payload := []byte("escape-me")
	var leaked memory.Loan
	var escaped []byte
	err := cl.InvokeView("echo", "echo", payload, sched.NormPriority, func(reply memory.Loan) error {
		leaked = reply
		var derr error
		escaped, derr = reply.Detach()
		return derr
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(escaped, payload) {
		t.Errorf("detached copy = %q", escaped)
	}
	if leaked.Valid() {
		t.Error("loan still valid after InvokeView returned")
	}
	if _, err := leaked.Bytes(); !errors.Is(err, memory.ErrStale) {
		t.Errorf("leaked loan Bytes: %v, want ErrStale", err)
	}
}
