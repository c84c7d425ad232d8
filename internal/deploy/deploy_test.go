package deploy

import (
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ccl"
	"repro/internal/cdl"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/transport"
)

// sample is the cross-process message type.
type sample struct {
	v int64
}

func (m *sample) Reset() { m.v = 0 }

func (m *sample) MarshalBinary() ([]byte, error) {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(m.v))
	return b, nil
}

func (m *sample) UnmarshalBinary(b []byte) error {
	if len(b) != 8 {
		return errors.New("sample: bad length")
	}
	m.v = int64(binary.BigEndian.Uint64(b))
	return nil
}

var sampleType = core.MessageType{Name: "Sample", Size: 32, New: func() core.Message { return &sample{} }}

// The serving process: a Sink whose In port is exported, with one thread and
// a one-slot buffer, so that a few messages fill it.
const serverDefs = `
<ComponentDefinitions>
  <Component>
    <ComponentName>Sink</ComponentName>
    <Port><PortName>in</PortName><PortType>In</PortType><MessageType>Sample</MessageType></Port>
  </Component>
</ComponentDefinitions>`

const serverApp = `
<Application>
  <ApplicationName>SinkProcess</ApplicationName>
  <Component>
    <InstanceName>Collector</InstanceName>
    <ClassName>Sink</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port>
        <PortName>in</PortName>
        <PortAttributes>
          <BufferSize>1</BufferSize>
          <Threadpool>Dedicated</Threadpool>
          <MinThreadpoolSize>1</MinThreadpoolSize>
          <MaxThreadpoolSize>1</MaxThreadpoolSize>
        </PortAttributes>
        <Exported>true</Exported>
      </Port>
    </Connection>
  </Component>
</Application>`

// The calling process: a Source whose Out port holds a Remote link to the
// collector's exported port.
const clientDefs = `
<ComponentDefinitions>
  <Component>
    <ComponentName>Source</ComponentName>
    <Port><PortName>out</PortName><PortType>Out</PortType><MessageType>Sample</MessageType></Port>
  </Component>
</ComponentDefinitions>`

const clientApp = `
<Application>
  <ApplicationName>SourceProcess</ApplicationName>
  <Component>
    <InstanceName>Emitter</InstanceName>
    <ClassName>Source</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port>
        <PortName>out</PortName>
        <Link>
          <PortType>Remote</PortType>
          <ToComponent>Collector</ToComponent>
          <ToPort>in</ToPort>
          <RemoteAddr>sink-process</RemoteAddr>
        </Link>
      </Port>
    </Connection>
  </Component>
</Application>`

func compilePlan(t *testing.T, defsDoc, appDoc string) *compiler.Plan {
	t.Helper()
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
	return plan
}

func TestTwoProcessDeployment(t *testing.T) {
	net := transport.NewInproc()
	got := make(chan int64, 32)
	// The first delivery holds the sink's one thread until the gate opens.
	gate := make(chan struct{})
	open := sync.OnceFunc(func() { close(gate) })
	var first sync.Once
	entered := make(chan struct{})

	// --- Process B: the sink, exporting Collector.in at "sink-process".
	serverPlan := compilePlan(t, serverDefs, serverApp)
	if len(serverPlan.Exports) != 1 || serverPlan.Exports[0].Instance != "Collector" {
		t.Fatalf("exports = %+v", serverPlan.Exports)
	}
	serverReg := compiler.NewRegistry()
	if err := serverReg.RegisterType(sampleType); err != nil {
		t.Fatal(err)
	}
	if err := serverReg.RegisterClass("Sink", compiler.ClassBinding{
		NewHandlers: func(c *core.Component) (map[string]core.Handler, error) {
			return map[string]core.Handler{
				"in": core.HandlerFunc(func(p *core.Proc, m core.Message) error {
					first.Do(func() {
						close(entered)
						<-gate
					})
					got <- m.(*sample).v
					return nil
				}),
			}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	serverDep, err := Run(serverPlan, serverReg, Config{Network: net, ListenAddr: "sink-process"})
	if err != nil {
		t.Fatal(err)
	}
	defer serverDep.Close()
	defer open() // a failed check must not leave the sink's thread held
	if serverDep.Addr() != "sink-process" {
		t.Errorf("server addr = %q", serverDep.Addr())
	}

	// --- Process A: the source, bridging Emitter.out across the network.
	clientPlan := compilePlan(t, clientDefs, clientApp)
	if len(clientPlan.RemoteConnections) != 1 {
		t.Fatalf("remote connections = %+v", clientPlan.RemoteConnections)
	}
	rc := clientPlan.RemoteConnections[0]
	if rc.Dest != "Collector.in" || rc.Addr != "sink-process" {
		t.Errorf("remote connection = %+v", rc)
	}
	clientReg := compiler.NewRegistry()
	if err := clientReg.RegisterType(sampleType); err != nil {
		t.Fatal(err)
	}
	if err := clientReg.RegisterClass("Source", compiler.ClassBinding{
		Start: func(p *core.Proc) error {
			out, err := p.SMM().GetOutPort("Emitter.out")
			if err != nil {
				return err
			}
			for i := int64(1); i <= 5; i++ {
				msg, err := out.GetMessage()
				if err != nil {
					return err
				}
				msg.(*sample).v = i * 11
				if err := out.Send(msg, sched.Priority(10)); err != nil {
					return err
				}
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	clientDep, err := Run(clientPlan, clientReg, Config{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer clientDep.Close()
	if clientDep.Addr() != "" {
		t.Errorf("client addr = %q, want empty (no exports)", clientDep.Addr())
	}

	// An exported port parks its sender on a full buffer: over a buffered
	// wire that, not a failed send, is what holds a remote sender back.
	// With the sink's thread held and its one slot taken, a later remote
	// send waits in the server, in flight, until the thread lets go; had
	// the port refused it, the send would fail and its value never arrive.
	<-entered
	parked := time.Now().Add(5 * time.Second)
	for serverDep.Server.Inflight() == 0 {
		if time.Now().After(parked) {
			t.Fatal("no remote send waited on the full exported port")
		}
		runtime.Gosched()
	}
	open()

	seen := map[int64]bool{}
	for i := 0; i < 5; i++ {
		select {
		case v := <-got:
			seen[v] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("cross-process delivery stalled at %d/5", i)
		}
	}
	for i := int64(1); i <= 5; i++ {
		if !seen[i*11] {
			t.Errorf("missing value %d", i*11)
		}
	}
	if n, err := clientDep.App.Errors(); n != 0 {
		t.Errorf("client errors: %d (%v)", n, err)
	}
	if n, err := serverDep.App.Errors(); n != 0 {
		t.Errorf("server errors: %d (%v)", n, err)
	}
}

func TestDeployValidation(t *testing.T) {
	clientPlan := compilePlan(t, clientDefs, clientApp)
	reg := compiler.NewRegistry()
	if err := reg.RegisterType(sampleType); err != nil {
		t.Fatal(err)
	}
	_ = reg.RegisterClass("Source", compiler.ClassBinding{})
	// Distributed plan without a network is rejected.
	if _, err := Run(clientPlan, reg, Config{}); !errors.Is(err, ErrDeploy) {
		t.Errorf("no-network err = %v", err)
	}
}

func TestCompileRemoteLinkErrors(t *testing.T) {
	// Remote link on an In port is rejected.
	badDefs := `
<ComponentDefinitions>
  <Component>
    <ComponentName>Sink</ComponentName>
    <Port><PortName>in</PortName><PortType>In</PortType><MessageType>Sample</MessageType></Port>
  </Component>
</ComponentDefinitions>`
	badApp := `
<Application>
  <ApplicationName>Bad</ApplicationName>
  <Component>
    <InstanceName>S</InstanceName>
    <ClassName>Sink</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port>
        <PortName>in</PortName>
        <Link><PortType>Remote</PortType><ToComponent>X</ToComponent><ToPort>y</ToPort><RemoteAddr>a</RemoteAddr></Link>
      </Port>
    </Connection>
  </Component>
</Application>`
	defs, err := cdl.Parse(strings.NewReader(badDefs))
	if err != nil {
		t.Fatal(err)
	}
	app, err := ccl.Parse(strings.NewReader(badApp))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compiler.Compile(defs, app); !errors.Is(err, compiler.ErrCompile) {
		t.Errorf("remote-on-In err = %v", err)
	}
}

func TestCCLRemoteValidation(t *testing.T) {
	// Remote link without RemoteAddr fails CCL validation.
	doc := strings.Replace(clientApp, "<RemoteAddr>sink-process</RemoteAddr>", "", 1)
	if _, err := ccl.Parse(strings.NewReader(doc)); !errors.Is(err, ccl.ErrValidation) {
		t.Errorf("missing RemoteAddr err = %v", err)
	}
	// RemoteAddr on a local link fails too.
	doc2 := strings.Replace(clientApp, "<PortType>Remote</PortType>", "<PortType>External</PortType>", 1)
	if _, err := ccl.Parse(strings.NewReader(doc2)); !errors.Is(err, ccl.ErrValidation) {
		t.Errorf("addr-on-local err = %v", err)
	}
}
