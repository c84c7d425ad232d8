package orb

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/corba"
	"repro/internal/core"
	"repro/internal/giop"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func startEchoServer(t *testing.T, net transport.Network, addr string, cfg ServerConfig) *Server {
	t.Helper()
	cfg.Network = net
	cfg.Addr = addr
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.RegisterServant("echo", corba.EchoServant{})
	srv.ServeBackground()
	t.Cleanup(srv.Close)
	return srv
}

func dial(t *testing.T, net transport.Network, addr string, cfg ClientConfig) *Client {
	t.Helper()
	cfg.Network = net
	cfg.Addr = addr
	cl, err := DialClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// areaState is what an area's String form shows.
type areaState struct {
	used, capacity int64
	gen            uint64
}

// stateOf reads an area's bytes and reuse generation off its String form.
func stateOf(a *memory.Area) (st areaState) {
	s := a.String()
	var kind string
	var level, entrants, wedges int
	if _, err := fmt.Sscanf(s[strings.LastIndex(s, "(")+1:], "%s %d/%d bytes, level %d, entrants %d, wedges %d, generation %d)",
		&kind, &st.used, &st.capacity, &level, &entrants, &wedges, &st.gen); err != nil {
		panic(fmt.Sprintf("%q: %v", s, err))
	}
	return st
}

// portGauge reads gauge name of the live In ports called qname, as /metrics
// lists them: the largest value (they are never negative), and whether any
// port has it.
func portGauge(name, qname string) (top int64, ok bool) {
	for _, g := range telemetry.Default.Snapshot(telemetry.SnapshotOptions{}).Gauges {
		if g.Name == name && g.Label == qname {
			top, ok = max(top, g.Value), true
		}
	}
	return top, ok
}

// pooledInFlight reports how many of the capacity messages in out's pool are
// taken: it takes every free one and puts them back.
func pooledInFlight(out *core.OutPort, capacity int) int {
	var free []core.Message
	for {
		m, err := out.GetMessage()
		if err != nil {
			break
		}
		free = append(free, m)
	}
	for _, m := range free {
		out.PutBack(m)
	}
	return capacity - len(free)
}

func TestEchoRoundTripInproc(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	cl := dial(t, net, srv.Addr(), ClientConfig{})

	payload := []byte("hello through the ORB")
	got, err := cl.Invoke("echo", "echo", payload, sched.NormPriority)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("echo = %q, want %q", got, payload)
	}

	// A second call exercises re-instantiation of the transient
	// MessageProcessing / RequestProcessing components.
	got2, err := cl.Invoke("echo", "echo", []byte("again"), sched.NormPriority)
	if err != nil {
		t.Fatal(err)
	}
	if string(got2) != "again" {
		t.Errorf("second echo = %q", got2)
	}

	if n, err := cl.App().Errors(); n != 0 {
		t.Errorf("client handler errors: %d (%v)", n, err)
	}
	if n, err := srv.App().Errors(); n != 0 {
		t.Errorf("server handler errors: %d (%v)", n, err)
	}
}

func TestEchoRoundTripTCP(t *testing.T) {
	srv := startEchoServer(t, transport.TCP{}, "127.0.0.1:0", ServerConfig{})
	cl := dial(t, transport.TCP{}, srv.Addr(), ClientConfig{})
	got, err := cl.Invoke("echo", "echo", []byte("over tcp"), sched.NormPriority)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "over tcp" {
		t.Errorf("echo = %q", got)
	}
}

func TestEchoWithScopePoolsAndSynchronous(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{Synchronous: true})
	cl := dial(t, net, srv.Addr(), ClientConfig{})

	for i := 0; i < 20; i++ {
		msg := []byte(fmt.Sprintf("msg-%d", i))
		got, err := cl.Invoke("echo", "echo", msg, sched.NormPriority)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("invoke %d: got %q", i, got)
		}
	}
	// MessageProcessing created its area when it was built and keeps it,
	// reclaimed in place once per invocation; RequestProcessing likewise.
	for _, side := range []struct {
		name string
		smm  *core.SMM
		comp string
	}{
		{"client MP", cl.App().Component("ORB").SMM().Child("Transport").SMM(), "MessageProcessing"},
		{"server RP", srv.poa.SMM().Child("Transport1").SMM(), "RequestProcessing"},
	} {
		// Twenty invocations, and the probe's own revival.
		if gen := stateOf(perRequestArea(t, side.smm, side.comp)).gen; gen != 21 {
			t.Errorf("%s area reclaimed %d times by 20 invocations and one probe, want 21", side.name, gen)
		}
	}
}

func TestOnewayInvocation(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	cl := dial(t, net, srv.Addr(), ClientConfig{})

	if err := cl.InvokeOneway("echo", "ping", nil, sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	// A subsequent two-way call confirms the stream stayed in sync.
	if _, err := cl.Invoke("echo", "ping", nil, sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	_ = srv
}

func TestUnknownObjectAndOperation(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	cl := dial(t, net, srv.Addr(), ClientConfig{})
	_ = srv

	if _, err := cl.Invoke("ghost", "echo", nil, sched.NormPriority); !errors.Is(err, corba.ErrSystemException) {
		t.Errorf("unknown object err = %v, want system exception", err)
	}
	if _, err := cl.Invoke("echo", "frobnicate", nil, sched.NormPriority); !errors.Is(err, corba.ErrUserException) {
		t.Errorf("unknown op err = %v, want user exception", err)
	}
	// The connection survives exceptions.
	if _, err := cl.Invoke("echo", "ping", nil, sched.NormPriority); err != nil {
		t.Errorf("post-exception call: %v", err)
	}
}

func TestMultipleClients(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})

	clients := make([]*Client, 3)
	for i := range clients {
		clients[i] = dial(t, net, srv.Addr(), ClientConfig{})
	}
	for i, cl := range clients {
		msg := []byte(fmt.Sprintf("client-%d", i))
		got, err := cl.Invoke("echo", "echo", msg, sched.NormPriority)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("client %d echo = %q", i, got)
		}
	}
}

func TestCustomServant(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	srv.RegisterServant("calc", corba.ServantFunc(func(op string, in []byte) ([]byte, error) {
		if op != "sum" {
			return nil, fmt.Errorf("no such op")
		}
		var sum byte
		for _, b := range in {
			sum += b
		}
		return []byte{sum}, nil
	}))
	cl := dial(t, net, srv.Addr(), ClientConfig{})
	got, err := cl.Invoke("calc", "sum", []byte{1, 2, 3}, sched.NormPriority)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 6 {
		t.Errorf("sum = %v", got)
	}
}

func TestClientCloseRejectsInvokes(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	cl := dial(t, net, srv.Addr(), ClientConfig{})
	if _, err := cl.Invoke("echo", "ping", nil, sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if _, err := cl.Invoke("echo", "ping", nil, sched.NormPriority); !errors.Is(err, corba.ErrClosed) {
		t.Errorf("invoke after close err = %v", err)
	}
	cl.Close() // idempotent
	_ = srv
}

func TestServerCloseIsClean(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	cl := dial(t, net, srv.Addr(), ClientConfig{})
	if _, err := cl.Invoke("echo", "ping", nil, sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // idempotent
	// Invocations now fail (connection torn down).
	if _, err := cl.Invoke("echo", "ping", nil, sched.NormPriority); err == nil {
		t.Error("invoke against closed server succeeded")
	}
}

// TestLargePayloadWithinBound echoes the largest payload whose request body
// fits giop.DefaultMaxMessage, then one a byte longer, which the server's
// frame reader refuses.
func TestLargePayloadWithinBound(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	cl := dial(t, net, srv.Addr(), ClientConfig{})
	overhead := len(giop.MarshalRequest(nil, giop.BigEndian, &giop.Request{
		RequestID: 1, ResponseExpected: true, ObjectKey: []byte("echo"), Operation: "echo",
	})) - giop.HeaderSize
	payload := bytes.Repeat([]byte{0xA5}, giop.DefaultMaxMessage-overhead)
	got, err := cl.Invoke("echo", "echo", payload, sched.NormPriority)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("large payload corrupted")
	}
	if _, err := cl.Invoke("echo", "echo", append(payload, 0xA5), sched.NormPriority); err == nil {
		t.Error("a request body past the bound was served")
	}
}

func TestNilNetworkRejected(t *testing.T) {
	if _, err := DialClient(ClientConfig{}); err == nil {
		t.Error("nil network client accepted")
	}
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Error("nil network server accepted")
	}
}
