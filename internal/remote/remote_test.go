package remote

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/sched"
	"repro/internal/transport"
)

// wireMsg is a serializable message for cross-process port traffic.
type wireMsg struct {
	value int64
}

func (m *wireMsg) Reset() { m.value = 0 }

func (m *wireMsg) MarshalBinary() ([]byte, error) {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(m.value))
	return b, nil
}

func (m *wireMsg) UnmarshalBinary(b []byte) error {
	if len(b) != 8 {
		return errors.New("wireMsg: bad length")
	}
	m.value = int64(binary.BigEndian.Uint64(b))
	return nil
}

var wireType = core.MessageType{Name: "Wire", Size: 32, New: func() core.Message { return &wireMsg{} }}

// plainMsg lacks binary marshalling.
type plainMsg struct{ v int }

func (m *plainMsg) Reset() { m.v = 0 }

var plainType = core.MessageType{Name: "Plain", Size: 16, New: func() core.Message { return &plainMsg{} }}

// startRemoteSink builds the serving process: an ORB server plus a local
// component app whose Sink.in port is exported. Received values appear on
// the returned channel, tagged with the priority they were dispatched at.
func startRemoteSink(t *testing.T, net transport.Network) (*orb.Server, chan [2]int64) {
	t.Helper()
	got := make(chan [2]int64, 16)

	app, err := core.NewApp(core.AppConfig{Name: "serverApp"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Stop)
	sink, err := app.NewImmortalComponent("Sink", func(c *core.Component) error {
		_, err := core.AddInPort(c, c.SMM(), core.InPortConfig{
			Name: "in", Type: wireType,
			// Requests arrive in bursts (a batch per read): a full buffer
			// must park the dispatching server thread, not fail the send.
			Overflow: core.OverflowBlock,
			Handler: core.HandlerFunc(func(p *core.Proc, m core.Message) error {
				got <- [2]int64{m.(*wireMsg).value, int64(p.Priority())}
				return nil
			}),
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := orb.NewServer(orb.ServerConfig{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if err := Export(srv, sink.SMM(), "Sink.in", wireType); err != nil {
		t.Fatal(err)
	}
	srv.ServeBackground()
	return srv, got
}

func recvTagged(t *testing.T, ch chan [2]int64) [2]int64 {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for remote delivery")
		return [2]int64{}
	}
}

func TestProxySendReachesExportedPort(t *testing.T) {
	net := transport.NewInproc()
	srv, got := startRemoteSink(t, net)

	cl, err := orb.DialClient(orb.ClientConfig{Network: net, Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	proxy, err := NewProxy(cl, "Sink.in", wireType, true /* ackd */)
	if err != nil {
		t.Fatal(err)
	}
	msg := proxy.typ.New()
	msg.(*wireMsg).value = 77
	if err := proxy.Send(msg, 9); err != nil {
		t.Fatal(err)
	}
	v := recvTagged(t, got)
	if v[0] != 77 {
		t.Errorf("value = %d, want 77", v[0])
	}
	// The RT-CORBA priority propagated across the wire.
	if v[1] != 9 {
		t.Errorf("priority = %d, want 9", v[1])
	}
}

func TestOnewayProxy(t *testing.T) {
	net := transport.NewInproc()
	srv, got := startRemoteSink(t, net)
	cl, err := orb.DialClient(orb.ClientConfig{Network: net, Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	proxy, err := NewProxy(cl, "Sink.in", wireType, false /* oneway */)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		msg := proxy.typ.New()
		msg.(*wireMsg).value = i
		if err := proxy.Send(msg, sched.NormPriority); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[int64]bool{}
	for i := 0; i < 3; i++ {
		seen[recvTagged(t, got)[0]] = true
	}
	if !seen[1] || !seen[2] || !seen[3] {
		t.Errorf("seen = %v", seen)
	}
}

func TestBindMakesRemotePortLocallyAddressable(t *testing.T) {
	net := transport.NewInproc()
	srv, got := startRemoteSink(t, net)
	cl, err := orb.DialClient(orb.ClientConfig{Network: net, Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	proxy, err := NewProxy(cl, "Sink.in", wireType, true)
	if err != nil {
		t.Fatal(err)
	}

	// The client-side app: Source sends through an ordinary port connection
	// to Bridge.toSink, which remote.Bind forwards across the network.
	app, err := core.NewApp(core.AppConfig{Name: "clientApp"})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	bridge, err := app.NewImmortalComponent("Bridge", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Bind(bridge, bridge.SMM(), "toSink", proxy); err != nil {
		t.Fatal(err)
	}
	source, err := app.NewImmortalComponent("Source", nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.AddOutPort(source, bridge.SMM(), core.OutPortConfig{
		Name: "emit", Type: wireType, Dests: []string{"Bridge.toSink"},
	})
	if err != nil {
		t.Fatal(err)
	}

	msg, err := out.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	msg.(*wireMsg).value = 1234
	if err := out.Send(msg, 5); err != nil {
		t.Fatal(err)
	}
	v := recvTagged(t, got)
	if v[0] != 1234 {
		t.Errorf("value = %d", v[0])
	}
	if v[1] != 5 {
		t.Errorf("priority = %d, want 5 (propagated end to end)", v[1])
	}
	if n, err := app.Errors(); n != 0 {
		t.Errorf("bridge handler errors: %d (%v)", n, err)
	}
}

func TestNonSerializableRejected(t *testing.T) {
	net := transport.NewInproc()
	srv, _ := startRemoteSink(t, net)
	cl, err := orb.DialClient(orb.ClientConfig{Network: net, Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := NewProxy(cl, "Sink.in", plainType, true); !errors.Is(err, ErrNotSerializable) {
		t.Errorf("proxy err = %v", err)
	}

	app, err := core.NewApp(core.AppConfig{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	comp, err := app.NewImmortalComponent("C", func(c *core.Component) error {
		_, err := core.AddInPort(c, c.SMM(), core.InPortConfig{
			Name: "in", Type: plainType,
			Handler: core.HandlerFunc(func(*core.Proc, core.Message) error { return nil }),
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := orb.NewServer(orb.ServerConfig{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if err := Export(srv2, comp.SMM(), "C.in", plainType); !errors.Is(err, ErrNotSerializable) {
		t.Errorf("export err = %v", err)
	}
}

func TestExportUnknownOperation(t *testing.T) {
	net := transport.NewInproc()
	srv, _ := startRemoteSink(t, net)
	cl, err := orb.DialClient(orb.ClientConfig{Network: net, Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Invoke("port:Sink.in", "frobnicate", nil, sched.NormPriority); err == nil {
		t.Error("unknown operation accepted")
	}
}

// TestProxyConcurrentSendsPipeline pins the multiplexed-client contract at
// the remote-port surface: many goroutines pushing acknowledged Sends
// through one proxy pipeline over the client's single GIOP connection, and
// every message arrives exactly once.
func TestProxyConcurrentSendsPipeline(t *testing.T) {
	net := transport.NewInproc()
	srv, got := startRemoteSink(t, net)
	cl, err := orb.DialClient(orb.ClientConfig{Network: net, Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	proxy, err := NewProxy(cl, "Sink.in", wireType, true /* ackd */)
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 16, 20
	seen := make(map[int64]int, workers*perWorker)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for i := 0; i < workers*perWorker; i++ {
			select {
			case v := <-got:
				seen[v[0]]++
			case <-time.After(5 * time.Second):
				return // drained-count check below reports the shortfall
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				msg := proxy.typ.New()
				msg.(*wireMsg).value = int64(w)<<16 | int64(i)
				if err := proxy.Send(msg, sched.NormPriority); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	<-drained

	if len(seen) != workers*perWorker {
		t.Fatalf("distinct values = %d, want %d", len(seen), workers*perWorker)
	}
	for v, n := range seen {
		if n != 1 {
			t.Errorf("value %d delivered %d times", v, n)
		}
	}
	if n := cl.Inflight(); n != 0 {
		t.Errorf("in-flight after drain = %d, want 0", n)
	}
}
