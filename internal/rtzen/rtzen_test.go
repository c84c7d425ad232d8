package rtzen

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/corba"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func startEcho(t *testing.T, net transport.Network, addr string) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{Network: net, Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	srv.RegisterServant("echo", corba.EchoServant{})
	srv.ServeBackground()
	t.Cleanup(srv.Close)
	return srv
}

func TestEchoRoundTripInproc(t *testing.T) {
	net := transport.NewInproc()
	srv := startEcho(t, net, "")
	cl, err := DialClient(ClientConfig{Network: net, Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	payload := []byte("rtzen echo")
	got, err := cl.Invoke("echo", "echo", payload, sched.NormPriority)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("echo = %q", got)
	}
}

func TestEchoRoundTripTCP(t *testing.T) {
	srv := startEcho(t, transport.TCP{}, "127.0.0.1:0")
	cl, err := DialClient(ClientConfig{Network: transport.TCP{}, Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got, err := cl.Invoke("echo", "echo", []byte("tcp"), sched.NormPriority)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "tcp" {
		t.Errorf("echo = %q", got)
	}
}

func TestScopePoolRecycling(t *testing.T) {
	net := transport.NewInproc()
	srv := startEcho(t, net, "")
	cl, err := DialClient(ClientConfig{Network: net, Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 25; i++ {
		if _, err := cl.Invoke("echo", "ping", nil, sched.NormPriority); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	created, reused, free := cl.pool.Stats()
	if created != defaultScopePool {
		t.Errorf("client scopes created = %d, want %d (pooled)", created, defaultScopePool)
	}
	if reused < 25 {
		t.Errorf("client scopes reused = %d", reused)
	}
	if free != defaultScopePool {
		t.Errorf("free = %d, want %d (all returned)", free, defaultScopePool)
	}
	sc, sr, _ := srv.pool.Stats()
	if sc > 4 || sr < 25 {
		t.Errorf("server scopes: created %d reused %d", sc, sr)
	}
}

func TestExceptions(t *testing.T) {
	net := transport.NewInproc()
	srv := startEcho(t, net, "")
	cl, err := DialClient(ClientConfig{Network: net, Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Invoke("ghost", "echo", nil, sched.NormPriority); !errors.Is(err, corba.ErrSystemException) {
		t.Errorf("unknown object err = %v", err)
	}
	if _, err := cl.Invoke("echo", "nope", nil, sched.NormPriority); !errors.Is(err, corba.ErrUserException) {
		t.Errorf("unknown op err = %v", err)
	}
	if _, err := cl.Invoke("echo", "ping", nil, sched.NormPriority); err != nil {
		t.Errorf("post-exception call: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	net := transport.NewInproc()
	srv := startEcho(t, net, "")

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := DialClient(ClientConfig{Network: net, Addr: srv.Addr()})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for j := 0; j < 10; j++ {
				msg := []byte(fmt.Sprintf("c%d-%d", i, j))
				got, err := cl.Invoke("echo", "echo", msg, sched.NormPriority)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, msg) {
					errs <- fmt.Errorf("echo mismatch: %q", got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCloseSemantics(t *testing.T) {
	net := transport.NewInproc()
	srv := startEcho(t, net, "")
	cl, err := DialClient(ClientConfig{Network: net, Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	cl.Close()
	if _, err := cl.Invoke("echo", "ping", nil, sched.NormPriority); !errors.Is(err, corba.ErrClosed) {
		t.Errorf("invoke after close err = %v", err)
	}
	srv.Close()
	srv.Close()
	if _, err := DialClient(ClientConfig{Network: net, Addr: srv.Addr()}); err == nil {
		t.Error("dial to closed server accepted")
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

// TestTracingFollowsVerbose holds RTZen to the component ORB's tracing gate:
// with telemetry on but verbose off a round trip records no span, and with
// verbose on the client's and the server's spans open under one trace. (That
// the untraced request carries no trace context on the wire is checked
// against the ORB's frame in orb's TestRequestFrameMatchesRTZen.)
func TestTracingFollowsVerbose(t *testing.T) {
	net := transport.NewInproc()
	srv := startEcho(t, net, "")
	cl, err := DialClient(ClientConfig{Network: net, Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	spans := func() (n int, clientTrace, serverTrace uint64) {
		for _, ev := range telemetry.Default.Ring().Snapshot() {
			if ev.Kind != telemetry.EvSpanStart {
				continue
			}
			switch ev.Label {
			case "rtzen.client.invoke":
				n, clientTrace = n+1, ev.Trace
			case "rtzen.server.request":
				n, serverTrace = n+1, ev.Trace
			}
		}
		return n, clientTrace, serverTrace
	}

	if !telemetry.Enabled() || telemetry.VerboseEnabled() {
		t.Fatal("the test expects telemetry on and verbose off")
	}
	before, _, _ := spans()
	if _, err := cl.Invoke("echo", "echo", []byte("quiet"), sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	if after, _, _ := spans(); after != before {
		t.Errorf("verbose off: %d span starts recorded, want none", after-before)
	}

	telemetry.Verbose(true)
	defer telemetry.Verbose(false)
	if _, err := cl.Invoke("echo", "echo", []byte("traced"), sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	after, clientTrace, serverTrace := spans()
	if after != before+2 || clientTrace == 0 || clientTrace != serverTrace {
		t.Errorf("verbose on: %d span starts, client trace %x, server trace %x; want 2 under one trace",
			after-before, clientTrace, serverTrace)
	}
}
