package compiler

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/ccl"
	"repro/internal/cdl"
	"repro/internal/core"
)

// The paper's Fig. 6 topology expressed in CDL + CCL: an immortal component
// with Client and Server children, wired P1->P2, P3->P4, P5->P6.
const figSixDefs = `
<ComponentDefinitions>
  <Component>
    <ComponentName>ImmortalComponent</ComponentName>
    <Port><PortName>P1</PortName><PortType>Out</PortType><MessageType>MyInteger</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Client</ComponentName>
    <Port><PortName>P2</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
    <Port><PortName>P3</PortName><PortType>Out</PortType><MessageType>MyInteger</MessageType></Port>
    <Port><PortName>P6</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Server</ComponentName>
    <Port><PortName>P4</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
    <Port><PortName>P5</PortName><PortType>Out</PortType><MessageType>MyInteger</MessageType></Port>
  </Component>
</ComponentDefinitions>`

const figSixApp = `
<Application>
  <ApplicationName>ClientServer</ApplicationName>
  <Component>
    <InstanceName>IMC</InstanceName>
    <ClassName>ImmortalComponent</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port>
        <PortName>P1</PortName>
        <Link><PortType>Internal</PortType><ToComponent>MyClient</ToComponent><ToPort>P2</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>MyClient</InstanceName>
      <ClassName>Client</ClassName>
      <ComponentType>Scoped</ComponentType>
      <MemorySize>16384</MemorySize>
      <Persistent>true</Persistent>
      <Connection>
        <Port>
          <PortName>P2</PortName>
          <PortAttributes>
            <BufferSize>10</BufferSize>
            <Threadpool>Shared</Threadpool>
            <MinThreadpoolSize>1</MinThreadpoolSize>
            <MaxThreadpoolSize>5</MaxThreadpoolSize>
          </PortAttributes>
        </Port>
        <Port>
          <PortName>P3</PortName>
          <Link><PortType>External</PortType><ToComponent>MyServer</ToComponent><ToPort>P4</ToPort></Link>
        </Port>
        <Port>
          <PortName>P6</PortName>
          <PortAttributes>
            <BufferSize>20</BufferSize>
            <Threadpool>Shared</Threadpool>
            <MinThreadpoolSize>1</MinThreadpoolSize>
            <MaxThreadpoolSize>5</MaxThreadpoolSize>
          </PortAttributes>
        </Port>
      </Connection>
    </Component>
    <Component>
      <InstanceName>MyServer</InstanceName>
      <ClassName>Server</ClassName>
      <ComponentType>Scoped</ComponentType>
      <MemorySize>16384</MemorySize>
      <Persistent>true</Persistent>
      <Connection>
        <Port>
          <PortName>P5</PortName>
          <Link><PortType>External</PortType><ToComponent>MyClient</ToComponent><ToPort>P6</ToPort></Link>
        </Port>
      </Connection>
    </Component>
  </Component>
  <RTSJAttributes>
    <ImmortalSize>400000</ImmortalSize>
    <ScopedPool>
      <ScopeLevel>1</ScopeLevel>
      <ScopeSize>200000</ScopeSize>
      <PoolSize>3</PoolSize>
    </ScopedPool>
  </RTSJAttributes>
</Application>`

type myInteger struct{ value int64 }

func (m *myInteger) Reset() { m.value = 0 }

var myIntegerType = core.MessageType{Name: "MyInteger", Size: 16, New: func() core.Message { return &myInteger{} }}

func figSixRegistry(t *testing.T, done chan int64) *Registry {
	t.Helper()
	reg := NewRegistry()
	if err := reg.RegisterType(myIntegerType); err != nil {
		t.Fatal(err)
	}

	if err := reg.RegisterClass("ImmortalComponent", ClassBinding{
		Start: func(p *core.Proc) error {
			p1, err := p.SMM().GetOutPort("IMC.P1")
			if err != nil {
				return err
			}
			m, err := p1.GetMessage()
			if err != nil {
				return err
			}
			m.(*myInteger).value = 3
			return p1.Send(m, 2)
		},
	}); err != nil {
		t.Fatal(err)
	}

	if err := reg.RegisterClass("Client", ClassBinding{
		NewHandlers: func(c *core.Component) (map[string]core.Handler, error) {
			return map[string]core.Handler{
				"P2": core.HandlerFunc(func(p *core.Proc, m core.Message) error {
					p3, err := p.SMM().GetOutPort("MyClient.P3")
					if err != nil {
						return err
					}
					req, err := p3.GetMessage()
					if err != nil {
						return err
					}
					req.(*myInteger).value = m.(*myInteger).value
					return p3.Send(req, 3)
				}),
				"P6": core.HandlerFunc(func(p *core.Proc, m core.Message) error {
					done <- m.(*myInteger).value
					return nil
				}),
			}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	if err := reg.RegisterClass("Server", ClassBinding{
		NewHandlers: func(c *core.Component) (map[string]core.Handler, error) {
			return map[string]core.Handler{
				"P4": core.HandlerFunc(func(p *core.Proc, m core.Message) error {
					p5, err := p.SMM().GetOutPort("MyServer.P5")
					if err != nil {
						return err
					}
					rep, err := p5.GetMessage()
					if err != nil {
						return err
					}
					rep.(*myInteger).value = m.(*myInteger).value + 1
					return p5.Send(rep, 3)
				}),
			}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestAssembleClientServerEndToEnd(t *testing.T) {
	defs, err := cdl.Parse(strings.NewReader(figSixDefs))
	if err != nil {
		t.Fatal(err)
	}
	cclApp, err := ccl.Parse(strings.NewReader(figSixApp))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(defs, cclApp)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Connections) != 3 {
		t.Fatalf("connections = %d, want 3", len(plan.Connections))
	}

	done := make(chan int64, 1)
	app, err := Assemble(plan, figSixRegistry(t, done))
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()

	// The immortal size from the CCL is honoured.
	if got := app.Model().Immortal().String(); !strings.Contains(got, "/400000 bytes") {
		t.Errorf("immortal area %s, want a budget of 400000 bytes", got)
	}
	if app.ScopePool(1) == nil {
		t.Error("scope pool for level 1 not created")
	}

	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-done:
		if v != 4 { // 3 sent by IMC, +1 at the server
			t.Errorf("reply = %d, want 4", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("round trip did not complete")
	}
	if n, err := app.Errors(); n != 0 {
		t.Errorf("handler errors: %d (%v)", n, err)
	}
}

func TestAssembleMissingTypeOrBinding(t *testing.T) {
	defs, _ := cdl.Parse(strings.NewReader(figSixDefs))
	cclApp, _ := ccl.Parse(strings.NewReader(figSixApp))
	plan, err := Compile(defs, cclApp)
	if err != nil {
		t.Fatal(err)
	}

	// No registered type.
	if _, err := Assemble(plan, NewRegistry()); !errors.Is(err, ErrCompile) {
		t.Errorf("missing type err = %v", err)
	}

	// Type but no binding for a class with In ports.
	reg := NewRegistry()
	if err := reg.RegisterType(myIntegerType); err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble(plan, reg); !errors.Is(err, ErrCompile) {
		t.Errorf("missing binding err = %v", err)
	}
}

func TestAssembleMissingHandler(t *testing.T) {
	defs, _ := cdl.Parse(strings.NewReader(figSixDefs))
	cclApp, _ := ccl.Parse(strings.NewReader(figSixApp))
	plan, err := Compile(defs, cclApp)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.RegisterType(myIntegerType); err != nil {
		t.Fatal(err)
	}
	empty := func(c *core.Component) (map[string]core.Handler, error) {
		return map[string]core.Handler{}, nil
	}
	_ = reg.RegisterClass("ImmortalComponent", ClassBinding{})
	_ = reg.RegisterClass("Client", ClassBinding{NewHandlers: empty})
	_ = reg.RegisterClass("Server", ClassBinding{NewHandlers: empty})
	app, err := Assemble(plan, reg)
	if err != nil {
		t.Fatal(err) // top-level assembly succeeds; failure surfaces at instantiation
	}
	defer app.Stop()
	// Instantiating the client must fail: no handler for P2.
	imc := app.Component("IMC")
	if _, err := imc.SMM().Connect("MyClient"); err == nil {
		t.Error("instantiation with missing handler succeeded")
	}
}

func TestRegistryValidation(t *testing.T) {
	reg := NewRegistry()
	if err := reg.RegisterType(core.MessageType{}); !errors.Is(err, ErrCompile) {
		t.Errorf("invalid type err = %v", err)
	}
	if err := reg.RegisterType(myIntegerType); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterType(myIntegerType); !errors.Is(err, ErrCompile) {
		t.Errorf("dup type err = %v", err)
	}
	if err := reg.RegisterClass("", ClassBinding{}); !errors.Is(err, ErrCompile) {
		t.Errorf("empty class err = %v", err)
	}
	if err := reg.RegisterClass("C", ClassBinding{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterClass("C", ClassBinding{}); !errors.Is(err, ErrCompile) {
		t.Errorf("dup class err = %v", err)
	}
}
