package orb

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/corba"
	"repro/internal/giop"
	"repro/internal/sched"
	"repro/internal/transport"
)

// TestOversizedReplyFailsCleanly has a servant answer a small request with
// a reply body past giop.DefaultMaxMessage, which the client refuses.
func TestOversizedReplyFailsCleanly(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	srv.RegisterServant("grow", corba.ServantFunc(func(string, []byte) ([]byte, error) {
		return bytes.Repeat([]byte{1}, giop.DefaultMaxMessage), nil
	}))
	cl := dial(t, net, srv.Addr(), ClientConfig{})
	if _, err := cl.Invoke("grow", "echo", []byte("x"), sched.NormPriority); err == nil {
		t.Error("oversized reply accepted")
	}
}

// TestLittleEndianClient sends a little-endian request frame from a raw
// peer: the server decodes it and answers in the byte order the request came
// in, with the echoed payload.
func TestLittleEndianClient(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	conn := rawDial(t, net, srv.Addr())
	h, rep := rawInvoke(t, conn, giop.LittleEndian, 7, "echo", []byte("LE"))
	if h.Order != giop.LittleEndian {
		t.Errorf("reply byte order = %v, want little-endian", h.Order)
	}
	if rep.RequestID != 7 || rep.Status != giop.ReplyNoException || string(rep.Payload) != "LE" {
		t.Errorf("reply = id %d, status %v, payload %q; want id 7, no exception, %q", rep.RequestID, rep.Status, rep.Payload, "LE")
	}
}

// rawDial opens a connection to a server with no client in between, for
// tests that speak GIOP frames to it directly.
func rawDial(t *testing.T, net transport.Network, addr string) transport.Conn {
	t.Helper()
	conn, err := net.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// rawRoundTrip writes one frame and reads the next one back.
func rawRoundTrip(t *testing.T, conn transport.Conn, wire []byte) (giop.Header, []byte) {
	t.Helper()
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	h, body, err := giop.ReadMessageLimited(conn, nil, giop.DefaultMaxMessage)
	if err != nil {
		t.Fatal(err)
	}
	return h, body
}

// rawInvoke sends one request in the given byte order and decodes its reply.
func rawInvoke(t *testing.T, conn transport.Conn, order giop.ByteOrder, id uint32, key string, payload []byte) (giop.Header, giop.Reply) {
	t.Helper()
	h, body := rawRoundTrip(t, conn, giop.MarshalRequest(nil, order, &giop.Request{
		RequestID: id, ResponseExpected: true, ObjectKey: []byte(key), Operation: "echo", Payload: payload,
	}))
	var rep giop.Reply
	if h.Type != giop.MsgReply {
		t.Fatalf("answer to a request is a %v", h.Type)
	}
	if err := giop.DecodeReply(h.Order, body, &rep); err != nil {
		t.Fatal(err)
	}
	return h, rep
}

// rawLocate sends one LocateRequest and decodes the server's LocateReply.
func rawLocate(t *testing.T, conn transport.Conn, id uint32, key string) giop.LocateReply {
	t.Helper()
	h, body := rawRoundTrip(t, conn, giop.MarshalLocateRequest(nil, giop.BigEndian, &giop.LocateRequest{
		RequestID: id, ObjectKey: []byte(key),
	}))
	var rep giop.LocateReply
	if h.Type != giop.MsgLocateReply {
		t.Fatalf("answer to a locate request is a %v", h.Type)
	}
	if err := giop.DecodeLocateReply(h.Order, body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.RequestID != id {
		t.Fatalf("locate reply id = %d, want %d", rep.RequestID, id)
	}
	return rep
}

func TestConcurrentInvokesOneClient(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	cl := dial(t, net, srv.Addr(), ClientConfig{})
	_ = srv

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte{byte(i)}
			got, err := cl.Invoke("echo", "echo", payload, sched.Priority(i%31+1))
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, payload) {
				errs <- errors.New("echo mismatch under concurrency")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestOnewayAfterCloseRejected(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	cl := dial(t, net, srv.Addr(), ClientConfig{})
	_ = srv
	cl.Close()
	if err := cl.InvokeOneway("echo", "ping", nil, sched.NormPriority); !errors.Is(err, corba.ErrClosed) {
		t.Errorf("oneway after close err = %v", err)
	}
}

// TestOnewayThenCloseReachesServant pins what "written" promises on a
// buffered wire: oneways the client wrote and then closed behind are still
// in the transport's buffer, and the server reads every one of them before
// it sees the end of the stream — in process exactly as over TCP.
func TestOnewayThenCloseReachesServant(t *testing.T) {
	for _, nw := range []struct {
		name string
		net  transport.Network
		addr string
	}{
		{"inproc", transport.NewInproc(), ""},
		{"tcp", transport.TCP{}, "127.0.0.1:0"},
	} {
		t.Run(nw.name, func(t *testing.T) {
			const n = 20
			got := make(chan string, n)
			srv := startEchoServer(t, nw.net, nw.addr, ServerConfig{})
			srv.RegisterServant("sink", corba.ServantFunc(func(op string, in []byte) ([]byte, error) {
				got <- string(in)
				return nil, nil
			}))
			cl := dial(t, nw.net, srv.Addr(), ClientConfig{})
			for i := 0; i < n; i++ {
				if err := cl.InvokeOneway("sink", "push", []byte{byte('a' + i)}, sched.NormPriority); err != nil {
					t.Fatal(err)
				}
			}
			cl.Close()
			seen := make(map[string]bool)
			for i := 0; i < n; i++ {
				seen[<-got] = true
			}
			if len(seen) != n {
				t.Errorf("servant saw %d distinct oneways, want %d", len(seen), n)
			}
		})
	}
}

func TestServerComponentTopology(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	cl := dial(t, net, srv.Addr(), ClientConfig{})
	if _, err := cl.Invoke("echo", "ping", nil, sched.NormPriority); err != nil {
		t.Fatal(err)
	}

	// Fig. 10 right: ORB (immortal) -> POA -> TransportN (per connection).
	orbComp := srv.App().Component("ORB")
	if orbComp == nil {
		t.Fatal("no ORB component")
	}
	poa := orbComp.SMM().Child("POA")
	if poa == nil {
		t.Fatal("no POA instance")
	}
	if poa.Level() != 1 {
		t.Errorf("POA level = %d, want 1", poa.Level())
	}
	tr := poa.SMM().Child("Transport1")
	if tr == nil {
		t.Fatal("no Transport1 instance")
	}
	if tr.Level() != 2 {
		t.Errorf("Transport level = %d, want 2", tr.Level())
	}
	if tr.Path() != "ORB/POA/Transport1" {
		t.Errorf("path = %q", tr.Path())
	}

	// Fig. 10 left: client ORB (immortal) -> Transport (lazy, held by the
	// client's handle) -> MessageProcessing (per request). The ORB has no In
	// port: callers send on Transport's port into MessageProcessing.
	clOrb := cl.App().Component("ORB")
	clTr := clOrb.SMM().Child("Transport")
	if clTr == nil {
		t.Fatal("client Transport not instantiated after first invoke")
	}
	if clTr.Level() != 1 {
		t.Errorf("client Transport level = %d", clTr.Level())
	}
	if cl.transport == nil || cl.transport.Component() != clTr {
		t.Error("the client's handle does not hold the live Transport")
	}
	if _, ok := portGauge("port_received", "Transport.request"); ok {
		t.Error("the client ORB still has an In port")
	}
	if out, err := clTr.SMM().GetOutPort("Transport.toMP"); err != nil || cl.invoke.Load() != out {
		t.Errorf("invocations go out on %v, want Transport's port into MessageProcessing (%v)", cl.invoke.Load(), err)
	}
	if clTr.SMM().Child("MessageProcessing") != nil {
		t.Error("MessageProcessing still live after its one request")
	}
}

// TestFirstInvokeRetriesTransport invokes a server that is not listening yet:
// the lazy Transport's dial fails that invoke, and the next one, once the
// server listens, instantiates the Transport afresh and succeeds.
func TestFirstInvokeRetriesTransport(t *testing.T) {
	net := transport.NewInproc()
	cl := dial(t, net, "later", ClientConfig{})
	if _, err := cl.Invoke("echo", "ping", nil, sched.NormPriority); err == nil {
		t.Fatal("invoke against a dead address succeeded")
	}
	if cl.transport != nil || cl.invoke.Load() != nil {
		t.Error("a failed Transport start left the client holding it")
	}
	startEchoServer(t, net, "later", ServerConfig{})
	for i := 0; i < 2; i++ {
		if got, err := cl.Invoke("echo", "echo", []byte("up"), sched.NormPriority); err != nil || string(got) != "up" {
			t.Fatalf("invoke %d after the server listens: %q, %v", i, got, err)
		}
	}
}

func TestDialFailureSurfacesOnFirstInvoke(t *testing.T) {
	// The Transport dials lazily, so a bad address fails at first Invoke.
	net := transport.NewInproc()
	cl, err := DialClient(ClientConfig{Network: net, Addr: "nowhere"})
	if err != nil {
		t.Fatalf("lazy client construction failed eagerly: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Invoke("echo", "ping", nil, sched.NormPriority); err == nil {
		t.Error("invoke against unreachable server succeeded")
	}
}

// TestLocate probes a server with raw LocateRequest frames: a registered
// servant is OBJECT_HERE, an unknown key UNKNOWN_OBJECT, and the connection
// still carries requests afterwards.
func TestLocate(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	conn := rawDial(t, net, srv.Addr())

	if rep := rawLocate(t, conn, 1, "echo"); rep.Status != giop.LocateObjectHere || rep.Forward != nil {
		t.Errorf("registered servant: status %v, forward %v; want OBJECT_HERE and no forward", rep.Status, rep.Forward)
	}
	if rep := rawLocate(t, conn, 2, "ghost"); rep.Status != giop.LocateUnknownObject || rep.Forward != nil {
		t.Errorf("unregistered servant: status %v, forward %v; want UNKNOWN_OBJECT and no forward", rep.Status, rep.Forward)
	}
	// The connection remains usable for requests afterwards.
	if _, rep := rawInvoke(t, conn, giop.BigEndian, 3, "echo", []byte("after")); rep.Status != giop.ReplyNoException || string(rep.Payload) != "after" {
		t.Errorf("post-locate invoke: status %v, payload %q", rep.Status, rep.Payload)
	}
}
