package orb

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/corba"
	"repro/internal/core"
	"repro/internal/giop"
	"repro/internal/overload"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// gatedServant parks every invocation until its gate opens.
type gatedServant struct{ entered, gate chan struct{} }

func (g gatedServant) Invoke(op string, in []byte) ([]byte, error) {
	g.entered <- struct{}{}
	<-g.gate
	return in, nil
}

// connChurn is one reconnect cycle: dial, invoke, close.
func connChurn(net transport.Network, addr string) error {
	cl, err := DialClient(ClientConfig{Network: net, Addr: addr})
	if err != nil {
		return err
	}
	defer cl.Close()
	_, err = cl.Invoke("echo", "echo", []byte("x"), sched.NormPriority)
	return err
}

// liveTransports counts the per-connection Transport children the POA still
// has instantiated — each pins a scoped area and owns a port and a pool.
func liveTransports(srv *Server) int {
	n := 0
	for i := uint64(1); i <= srv.connSeq.Load(); i++ {
		if srv.poa.SMM().Child(fmt.Sprintf("Transport%d", i)) != nil {
			n++
		}
	}
	return n
}

// A connection the peer has closed is let go: reconnect churn (breaker
// redials, Retarget, rolling upgrades) must not grow a long-lived server.
// Before, every connection that ever existed kept its serverConn, handle,
// Transport scope and pool worker until Server.Close.
func TestServerLetsClosedConnectionsGo(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	// The POA is idle once no Transport is left under it; a connection
	// leaves the server's table before its Transport goes.
	settled := func() (conns, transports, goroutines int) {
		srv.poaPin.AwaitIdle(time.Now().Add(5 * time.Second))
		srv.mu.Lock()
		conns = len(srv.conns)
		srv.mu.Unlock()
		return conns, liveTransports(srv), runtime.NumGoroutine()
	}
	for i := 0; i < 20; i++ { // warm the pools the process keeps
		if err := connChurn(net, srv.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	_, _, before := settled()
	for i := 0; i < 500; i++ {
		if err := connChurn(net, srv.Addr()); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	conns, transports, after := settled()
	if conns != 0 || transports != 0 {
		t.Errorf("after 500 closed connections the server still holds %d connections and %d live Transport scopes, want 0 and 0", conns, transports)
	}
	if after > before+5 {
		t.Errorf("goroutines grew from %d to %d over 500 reconnects", before, after)
	}

	// A connection closed with a request still in its servant goes too, once
	// the request has recycled — and on the reader's thread, not a worker's.
	g := gatedServant{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	srv.RegisterServant("gated", g)
	cl := dial(t, net, srv.Addr(), ClientConfig{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = cl.Invoke("gated", "op", []byte("x"), sched.NormPriority)
	}()
	<-g.entered
	cl.Close()
	<-done
	if srv.poaPin.AwaitIdle(time.Now().Add(5*time.Millisecond)) || liveTransports(srv) != 1 {
		t.Errorf("%d live Transports while a request is still in its servant, want 1", liveTransports(srv))
	}
	close(g.gate)
	// The Transport's pool shuts down by waiting for its workers, so the
	// worker that ran the request must not be the one that reclaims it: that
	// one would park in Shutdown, and the POA would never go idle.
	if conns, transports, _ := settled(); conns != 0 || transports != 0 {
		t.Errorf("connection closed mid-request not let go: %d connections, %d Transports", conns, transports)
	}
	stacks := make([]byte, 1<<20)
	if stacks = stacks[:runtime.Stack(stacks, true)]; bytes.Contains(stacks, []byte("sched.(*Pool).Shutdown")) {
		t.Error("a goroutine is parked in Pool.Shutdown: the Transport was reclaimed from its own pool's worker")
	}
}

// Closing the server in the middle of reconnect churn is clean: readers that
// are retiring their connections and Close do not trip over each other.
func TestServerCloseDuringConnectionChurn(t *testing.T) {
	net := transport.NewInproc()
	srv, err := NewServer(ServerConfig{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	srv.RegisterServant("echo", corba.EchoServant{})
	srv.ServeBackground()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var cycles [4]int
	for w := range cycles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if connChurn(net, srv.Addr()) == nil { // errors are the close landing
					cycles[w]++
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close hung during connection churn")
	}
	close(stop)
	wg.Wait()
	if n := liveTransports(srv); n != 0 {
		t.Errorf("%d Transports outlived Server.Close", n)
	}
	for w, n := range cycles {
		if n == 0 {
			t.Errorf("churner %d completed no cycle before the close", w)
		}
	}
}

// A request whose relay into RequestProcessing loses to the component
// application stopping is released, not leaked: the failed send recycled the
// pooled message, so its frame reference, its share of the server's in-flight
// count and its admission slot are all back.
func TestDispatchLosingToStopReleasesTheRequest(t *testing.T) {
	giop.SetFrameLeakCheck(true)
	defer giop.SetFrameLeakCheck(false)

	ctrl := overload.NewController(overload.Config{})
	defer ctrl.Close()
	srv := &Server{ctrl: ctrl}
	app, err := core.NewApp(core.AppConfig{Name: "dispatch-stop"})
	if err != nil {
		t.Fatal(err)
	}
	var toRP *core.OutPort
	_, err = app.NewImmortalComponent("T", func(c *core.Component) (err error) {
		toRP, err = core.AddOutPort(c, c.SMM(), core.OutPortConfig{Name: "toRP", Type: requestType, Dests: []string{"T.request"}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	app.Stop()

	wire := giop.MarshalRequest(nil, giop.BigEndian, &giop.Request{
		RequestID: 7, ResponseExpected: true, ObjectKey: []byte("echo"), Operation: "echo", Payload: []byte("x"),
	})
	fr := giop.NewFrameReader(bytes.NewReader(wire), DefaultMaxMessage)
	h, fb, err := fr.NextFrame()
	if err != nil {
		t.Fatal(err)
	}
	if srv.dispatch(&serverConn{srv: srv}, toRP, nil, h, fb) {
		t.Fatal("dispatch into a stopped application reported the connection healthy")
	}
	fr.Close()

	if n := srv.inflight.Load(); n != 0 {
		t.Errorf("server in-flight = %d after the failed relay", n)
	}
	if n := ctrl.Inflight(); n != 0 {
		t.Errorf("admission slots held = %d after the failed relay", n)
	}
	if inFlight := pooledInFlight(toRP, core.DefaultMsgPoolCapacity); inFlight != 0 {
		t.Errorf("request messages in flight = %d", inFlight)
	}
	if leaks := giop.CheckFrameLeaks(); len(leaks) != 0 {
		t.Errorf("frames leaked: %v", leaks)
	}
}

// Close fails an invocation in flight on a connection a Retarget is still
// retiring. Before, Close failed only the members' current connections, so the
// caller stayed blocked until its reply came or the retire grace (2 s) ran
// out, and the retiring connection outlived the client.
func TestClientCloseFailsRetiringConnections(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	g := gatedServant{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	srv.RegisterServant("gated", g)
	defer close(g.gate)
	cl := dial(t, net, srv.Addr(), ClientConfig{})
	errs := make(chan error, 1)
	go func() {
		_, err := cl.Invoke("gated", "op", []byte("x"), sched.NormPriority)
		errs <- err
	}()
	<-g.entered
	cl.Retarget([]string{"elsewhere"}) // the member is removed; its connection retires with the call on it
	cl.Close()
	select {
	case err := <-errs:
		if !errors.Is(err, corba.ErrClosed) {
			t.Fatalf("invocation in flight at Close = %v, want ErrClosed", err)
		}
	case <-time.After(retireGrace / 2):
		t.Fatal("an invocation on a retiring connection still blocked after Close")
	}
}

// A connection's Transport takes the name of one that has retired, so the
// telemetry labels it interns (its request port, its pool) stay bounded by the
// peak of concurrent connections instead of growing by two per accept.
func TestServerConnectionLabelsBounded(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	churn := func(n int) {
		for i := 0; i < n; i++ {
			if err := connChurn(net, srv.Addr()); err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
		}
	}
	churn(20)
	before := telemetry.Label(t.Name() + ".before")
	churn(1000)
	after := telemetry.Label(t.Name() + ".after")
	grew := after - before - 1
	t.Logf("1000 reconnects: %d new labels, %d Transport names minted", grew, srv.connSeq.Load())
	if grew > 8 {
		t.Errorf("1000 reconnects interned %d new telemetry labels, want at most 8 (Transport names minted: %d)",
			grew, srv.connSeq.Load())
	}
}

// tapNet hands every connection it dials to the test as well, so the test
// can write onto a client's connection behind the client's back.
type tapNet struct {
	transport.Network
	dialed chan transport.Conn
}

func (n tapNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err == nil {
		n.dialed <- c
	}
	return c, err
}

// A request whose body does not decode is a protocol error: the server
// records an orb.server.demarshal fault and closes the connection, so a call
// pending on it fails at once instead of waiting out its invoke timeout.
func TestUndecodableRequestFaultClosesConnection(t *testing.T) {
	inproc := transport.NewInproc()
	srv := startEchoServer(t, inproc, "", ServerConfig{})
	g := gatedServant{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	srv.RegisterServant("gated", g)
	defer close(g.gate)
	tap := tapNet{inproc, make(chan transport.Conn, 1)}
	cl := dial(t, tap, srv.Addr(), ClientConfig{Resilience: &ResilienceConfig{InvokeTimeout: time.Minute}})
	errs := make(chan error, 1)
	go func() {
		_, err := cl.Invoke("gated", "op", []byte("x"), sched.NormPriority)
		errs <- err
	}()
	<-g.entered
	conn := <-tap.dialed
	_, before := telemetry.Default.Faults()

	// Three bytes cannot hold a request's service-context count.
	bad := append(giop.AppendHeader(nil, giop.Header{Type: giop.MsgRequest, Order: giop.BigEndian, Size: 3}), 0, 0, 0)
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("the call pending on the closed connection succeeded")
		}
		t.Logf("pending call failed after %v: %v", time.Since(start), err)
	case <-time.After(5 * time.Second):
		t.Fatal("the call pending on the connection still waits 5 s after the undecodable request")
	}
	faults, total := telemetry.Default.Faults()
	found := false
	for _, f := range faults[max(0, len(faults)-int(total-before)):] {
		found = found || f.Label == "orb.server.demarshal"
	}
	if !found {
		t.Errorf("no orb.server.demarshal fault among the %d recorded since the bad frame", total-before)
	}
}
