package repro_test

// Integration tests drive the full stack the way a downstream user would:
// XML documents through the compiler into a running application, port
// connections stretched over the ORB, and failure injection across
// component and network boundaries.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/ccl"
	"repro/internal/cdl"
	"repro/internal/compiler"
	"repro/internal/corba"
	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/remote"
	"repro/internal/sched"
	"repro/internal/transport"
)

// tick is the integration message type.
type tick struct {
	seq int64
}

func (m *tick) Reset() { m.seq = 0 }

func (m *tick) MarshalBinary() ([]byte, error) {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(m.seq))
	return b, nil
}

func (m *tick) UnmarshalBinary(b []byte) error {
	if len(b) != 8 {
		return errors.New("tick: bad length")
	}
	m.seq = int64(binary.BigEndian.Uint64(b))
	return nil
}

var tickType = core.MessageType{Name: "Tick", Size: 32, New: func() core.Message { return &tick{} }}

// TestFullStackXMLToRunningApp compiles a three-instance pipeline from XML
// and runs a burst of messages through it end to end.
func TestFullStackXMLToRunningApp(t *testing.T) {
	const defsDoc = `
<ComponentDefinitions>
  <Component>
    <ComponentName>Source</ComponentName>
    <Port><PortName>out</PortName><PortType>Out</PortType><MessageType>Tick</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Stage</ComponentName>
    <Port><PortName>in</PortName><PortType>In</PortType><MessageType>Tick</MessageType></Port>
    <Port><PortName>out</PortName><PortType>Out</PortType><MessageType>Tick</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Sink</ComponentName>
    <Port><PortName>in</PortName><PortType>In</PortType><MessageType>Tick</MessageType></Port>
  </Component>
</ComponentDefinitions>`
	const appDoc = `
<Application>
  <ApplicationName>Pipeline</ApplicationName>
  <Component>
    <InstanceName>Root</InstanceName>
    <ClassName>Source</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port>
        <PortName>out</PortName>
        <Link><PortType>Internal</PortType><ToComponent>Mid</ToComponent><ToPort>in</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>Mid</InstanceName>
      <ClassName>Stage</ClassName>
      <ComponentType>Scoped</ComponentType>
      <UsePool>true</UsePool>
      <Persistent>true</Persistent>
      <Connection>
        <Port>
          <PortName>in</PortName>
          <PortAttributes>
            <BufferSize>64</BufferSize>
            <Threadpool>Shared</Threadpool>
            <MinThreadpoolSize>1</MinThreadpoolSize>
            <MaxThreadpoolSize>4</MaxThreadpoolSize>
          </PortAttributes>
        </Port>
        <Port>
          <PortName>out</PortName>
          <Link><PortType>External</PortType><ToComponent>End</ToComponent><ToPort>in</ToPort></Link>
        </Port>
      </Connection>
    </Component>
    <Component>
      <InstanceName>End</InstanceName>
      <ClassName>Sink</ClassName>
      <ComponentType>Scoped</ComponentType>
      <MemorySize>16384</MemorySize>
      <Persistent>true</Persistent>
      <Connection>
        <Port>
          <PortName>in</PortName>
          <PortAttributes>
            <BufferSize>64</BufferSize>
            <Threadpool>Shared</Threadpool>
            <MinThreadpoolSize>1</MinThreadpoolSize>
            <MaxThreadpoolSize>4</MaxThreadpoolSize>
          </PortAttributes>
        </Port>
      </Connection>
    </Component>
  </Component>
  <RTSJAttributes>
    <ImmortalSize>1048576</ImmortalSize>
    <ScopedPool>
      <ScopeLevel>1</ScopeLevel>
      <ScopeSize>65536</ScopeSize>
      <PoolSize>2</PoolSize>
    </ScopedPool>
  </RTSJAttributes>
</Application>`

	defs, err := cdl.Parse(strings.NewReader(defsDoc))
	if err != nil {
		t.Fatal(err)
	}
	app, err := ccl.Parse(strings.NewReader(appDoc))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := compiler.Compile(defs, app)
	if err != nil {
		t.Fatal(err)
	}

	const burst = 16 // two hops in flight each fit the default message pool
	got := make(chan int64, burst)
	reg := compiler.NewRegistry()
	if err := reg.RegisterType(tickType); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterClass("Source", compiler.ClassBinding{
		Start: func(p *core.Proc) error {
			out, err := p.SMM().GetOutPort("Root.out")
			if err != nil {
				return err
			}
			for i := int64(1); i <= burst; i++ {
				msg, err := out.GetMessage()
				if err != nil {
					return err
				}
				msg.(*tick).seq = i
				if err := out.Send(msg, sched.Priority(i%31+1)); err != nil {
					return err
				}
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterClass("Stage", compiler.ClassBinding{
		NewHandlers: func(c *core.Component) (map[string]core.Handler, error) {
			return map[string]core.Handler{
				"in": core.HandlerFunc(func(p *core.Proc, m core.Message) error {
					out, err := p.SMM().GetOutPort("Mid.out")
					if err != nil {
						return err
					}
					fwd, err := out.GetMessage()
					if err != nil {
						return err
					}
					fwd.(*tick).seq = m.(*tick).seq * 2
					return out.Send(fwd, p.Priority())
				}),
			}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterClass("Sink", compiler.ClassBinding{
		NewHandlers: func(c *core.Component) (map[string]core.Handler, error) {
			return map[string]core.Handler{
				"in": core.HandlerFunc(func(p *core.Proc, m core.Message) error {
					got <- m.(*tick).seq
					return nil
				}),
			}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	// Mid's out port mediates through Root (sibling connection), so the
	// handler's p.SMM() must resolve it; confirm the plan agrees.
	if pp := plan.Port("Mid", "out"); pp == nil || pp.Mediator != "Root" {
		t.Fatalf("Mid.out plan = %+v", pp)
	}

	runApp, err := compiler.Assemble(plan, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer runApp.Stop()
	if err := runApp.Start(); err != nil {
		t.Fatal(err)
	}

	want := make(map[int64]bool, burst)
	for i := int64(1); i <= burst; i++ {
		want[2*i] = true
	}
	for i := 0; i < burst; i++ {
		select {
		case v := <-got:
			if !want[v] {
				t.Fatalf("unexpected value %d", v)
			}
			delete(want, v)
		case <-time.After(5 * time.Second):
			t.Fatalf("pipeline stalled with %d values missing", len(want))
		}
	}
	if n, err := runApp.Errors(); n != 0 {
		t.Errorf("handler errors: %d (%v)", n, err)
	}
	// The level-1 pool served both Mid and End... only Mid uses it; End has
	// an explicit size. Pool stats just need to show reuse-capable state.
	if runApp.ScopePool(1) == nil {
		t.Error("scope pool missing")
	}
}

// TestDistributedPipelineOverORB splits a pipeline across two component
// applications joined by exported ports: Source app -> (GIOP) -> Sink app.
func TestDistributedPipelineOverORB(t *testing.T) {
	net := transport.NewInproc()
	got := make(chan int64, 32)

	// Serving side.
	sinkApp, err := core.NewApp(core.AppConfig{Name: "sinkApp"})
	if err != nil {
		t.Fatal(err)
	}
	defer sinkApp.Stop()
	sink, err := sinkApp.NewImmortalComponent("Sink", func(c *core.Component) error {
		// An exported port blocks its remote senders while full, as the
		// compiler configures every <Exported> port: with the default Reject
		// policy a burst that outruns the handler fails the remote send.
		_, err := core.AddInPort(c, c.SMM(), core.InPortConfig{
			Name: "in", Type: tickType, Overflow: core.OverflowBlock,
			Handler: core.HandlerFunc(func(p *core.Proc, m core.Message) error {
				got <- m.(*tick).seq
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
	defer srv.Close()
	if err := remote.Export(srv, sink.SMM(), "Sink.in", tickType); err != nil {
		t.Fatal(err)
	}
	srv.ServeBackground()

	// Calling side.
	cl, err := orb.DialClient(orb.ClientConfig{Network: net, Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	proxy, err := remote.NewProxy(cl, "Sink.in", tickType, true)
	if err != nil {
		t.Fatal(err)
	}
	srcApp, err := core.NewApp(core.AppConfig{Name: "srcApp"})
	if err != nil {
		t.Fatal(err)
	}
	defer srcApp.Stop()
	bridge, err := srcApp.NewImmortalComponent("Bridge", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Bind(bridge, bridge.SMM(), "north", proxy); err != nil {
		t.Fatal(err)
	}
	src, err := srcApp.NewImmortalComponent("Source", nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.AddOutPort(src, bridge.SMM(), core.OutPortConfig{
		Name: "out", Type: tickType, Dests: []string{"Bridge.north"},
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 20
	for i := int64(1); i <= n; i++ {
		// The bridge performs an acknowledged network send per message, so
		// its bounded In-port buffer applies backpressure; a real-time
		// producer polls on ErrBufferFull rather than blocking.
		deadline := time.Now().Add(5 * time.Second)
		for {
			msg, err := out.GetMessage()
			if err != nil {
				t.Fatal(err)
			}
			msg.(*tick).seq = i
			// On ErrBufferFull the framework has already recycled the
			// message, so each retry draws a fresh one from the pool.
			err = out.Send(msg, sched.NormPriority)
			if err == nil {
				break
			}
			if !errors.Is(err, core.ErrBufferFull) && !errors.Is(err, core.ErrPoolEmpty) {
				t.Fatal(err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("backpressure never drained at message %d", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	seen := make(map[int64]bool, n)
	for i := 0; i < n; i++ {
		select {
		case v := <-got:
			seen[v] = true
		case <-time.After(5 * time.Second):
			srcN, srcErr := srcApp.Errors()
			sinkN, sinkErr := sinkApp.Errors()
			t.Fatalf("distributed pipeline stalled at %d/%d; source app errors: %d (%v); sink app errors: %d (%v)",
				i, n, srcN, srcErr, sinkN, sinkErr)
		}
	}
	if len(seen) != n {
		t.Errorf("received %d distinct values, want %d", len(seen), n)
	}
}

// TestFailureInjectionServantErrors verifies that a flaky servant degrades
// per-call (exceptions travel back) without poisoning the connection or the
// component structures.
func TestFailureInjectionServantErrors(t *testing.T) {
	net := transport.NewInproc()
	srv, err := orb.NewServer(orb.ServerConfig{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	calls := 0
	srv.RegisterServant("flaky", corba.ServantFunc(func(op string, in []byte) ([]byte, error) {
		calls++
		if calls%3 == 0 {
			return nil, fmt.Errorf("transient fault %d", calls)
		}
		return in, nil
	}))
	srv.ServeBackground()

	cl, err := orb.DialClient(orb.ClientConfig{Network: net, Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var faults, successes int
	for i := 0; i < 30; i++ {
		_, err := cl.Invoke("flaky", "op", []byte{byte(i)}, sched.NormPriority)
		switch {
		case err == nil:
			successes++
		case errors.Is(err, corba.ErrUserException):
			faults++
		default:
			t.Fatalf("call %d: unexpected error class: %v", i, err)
		}
	}
	if faults != 10 || successes != 20 {
		t.Errorf("faults/successes = %d/%d, want 10/20", faults, successes)
	}
}

// TestFailureInjectionServerDeath verifies that callers observe clean
// errors when the server dies mid-conversation and that a new server can
// take over the address space (new listener).
func TestFailureInjectionServerDeath(t *testing.T) {
	net := transport.NewInproc()
	srv, err := orb.NewServer(orb.ServerConfig{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	srv.RegisterServant("echo", corba.EchoServant{})
	srv.ServeBackground()

	cl, err := orb.DialClient(orb.ClientConfig{Network: net, Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Invoke("echo", "ping", nil, sched.NormPriority); err != nil {
		t.Fatal(err)
	}

	srv.Close() // the server dies
	if _, err := cl.Invoke("echo", "ping", nil, sched.NormPriority); err == nil {
		t.Error("invoke against dead server succeeded")
	}

	// A replacement server accepts new clients.
	srv2, err := orb.NewServer(orb.ServerConfig{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	srv2.RegisterServant("echo", corba.EchoServant{})
	srv2.ServeBackground()
	cl2, err := orb.DialClient(orb.ClientConfig{Network: net, Addr: srv2.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, err := cl2.Invoke("echo", "ping", nil, sched.NormPriority); err != nil {
		t.Errorf("replacement server unreachable: %v", err)
	}
}
