package compiler

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ccl"
	"repro/internal/cdl"
)

// testDefs declares the classes used across the compiler tests.
const testDefs = `
<ComponentDefinitions>
  <Component>
    <ComponentName>Parent</ComponentName>
    <Port><PortName>toChild</PortName><PortType>Out</PortType><MessageType>Int</MessageType></Port>
    <Port><PortName>fromChild</PortName><PortType>In</PortType><MessageType>Int</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Child</ComponentName>
    <Port><PortName>in</PortName><PortType>In</PortType><MessageType>Int</MessageType></Port>
    <Port><PortName>out</PortName><PortType>Out</PortType><MessageType>Int</MessageType></Port>
    <Port><PortName>strOut</PortName><PortType>Out</PortType><MessageType>Str</MessageType></Port>
  </Component>
</ComponentDefinitions>`

func mustDefs(t *testing.T) *cdl.Definitions {
	t.Helper()
	defs, err := cdl.Parse(strings.NewReader(testDefs))
	if err != nil {
		t.Fatal(err)
	}
	return defs
}

func mustApp(t *testing.T, doc string) *ccl.Application {
	t.Helper()
	app, err := ccl.Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// parentChildApp wires Parent.toChild -> Kid.in and Kid.out -> Parent.fromChild.
const parentChildApp = `
<Application>
  <ApplicationName>PC</ApplicationName>
  <Component>
    <InstanceName>Top</InstanceName>
    <ClassName>Parent</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port>
        <PortName>toChild</PortName>
        <Link><PortType>Internal</PortType><ToComponent>Kid</ToComponent><ToPort>in</ToPort></Link>
      </Port>
      <Port>
        <PortName>fromChild</PortName>
        <PortAttributes>
          <BufferSize>4</BufferSize>
          <Threadpool>Dedicated</Threadpool>
          <MinThreadpoolSize>1</MinThreadpoolSize>
          <MaxThreadpoolSize>2</MaxThreadpoolSize>
        </PortAttributes>
        <Link><PortType>Internal</PortType><ToComponent>Kid</ToComponent><ToPort>out</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>Kid</InstanceName>
      <ClassName>Child</ClassName>
      <ComponentType>Scoped</ComponentType>
      <MemorySize>16384</MemorySize>
    </Component>
  </Component>
</Application>`

func TestCompileParentChild(t *testing.T) {
	plan, err := Compile(mustDefs(t), mustApp(t, parentChildApp))
	if err != nil {
		t.Fatal(err)
	}
	if plan.AppName != "PC" {
		t.Errorf("app name = %q", plan.AppName)
	}
	if len(plan.Connections) != 2 {
		t.Fatalf("connections = %d, want 2", len(plan.Connections))
	}
	for _, c := range plan.Connections {
		if c.Kind != ConnInternal {
			t.Errorf("connection %v kind = %v, want internal", c, c.Kind)
		}
		if c.Mediator != "Top" {
			t.Errorf("mediator = %q, want Top", c.Mediator)
		}
	}
	// Orientation: link declared on the In side still yields Out->In.
	var from []Connection
	for _, c := range plan.Connections {
		if c.FromInstance == "Kid" {
			from = append(from, c)
		}
	}
	if len(from) != 1 || from[0].ToInstance != "Top" || from[0].ToPort != "fromChild" {
		t.Errorf("Kid connections = %+v", from)
	}
	// Port plans carry attributes and destinations.
	pp := plan.Port("Top", "fromChild")
	if pp == nil || !pp.HasAttrs || pp.Buffer != 4 || pp.Threadpool != ccl.Dedicated || pp.Min != 1 || pp.Max != 2 {
		t.Errorf("fromChild plan = %+v", pp)
	}
	if pp.QualifiedName() != "Top.fromChild" {
		t.Errorf("qualified name = %q", pp.QualifiedName())
	}
	out := plan.Port("Top", "toChild")
	if out == nil || len(out.Dests) != 1 || out.Dests[0] != "Kid.in" {
		t.Errorf("toChild plan = %+v", out)
	}
	if plan.Port("Top", "none") != nil || plan.Port("None", "x") != nil {
		t.Error("missing port lookups returned non-nil")
	}
	if plan.Instances["Kid"].Level != 1 || plan.Instances["Kid"].Parent != "Top" {
		t.Errorf("Kid instance plan wrong: %+v", plan.Instances["Kid"])
	}
}

// siblingApp wires two children of a common parent.
const siblingApp = `
<Application>
  <ApplicationName>Sib</ApplicationName>
  <Component>
    <InstanceName>Top</InstanceName>
    <ClassName>Parent</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Component>
      <InstanceName>A</InstanceName>
      <ClassName>Child</ClassName>
      <ComponentType>Scoped</ComponentType>
      <MemorySize>8192</MemorySize>
      <Connection>
        <Port>
          <PortName>out</PortName>
          <Link><PortType>External</PortType><ToComponent>B</ToComponent><ToPort>in</ToPort></Link>
        </Port>
      </Connection>
    </Component>
    <Component>
      <InstanceName>B</InstanceName>
      <ClassName>Child</ClassName>
      <ComponentType>Scoped</ComponentType>
      <MemorySize>8192</MemorySize>
    </Component>
  </Component>
</Application>`

func TestCompileSiblings(t *testing.T) {
	plan, err := Compile(mustDefs(t), mustApp(t, siblingApp))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Connections) != 1 {
		t.Fatalf("connections = %d", len(plan.Connections))
	}
	c := plan.Connections[0]
	if c.Kind != ConnExternal || c.Mediator != "Top" {
		t.Errorf("connection = %+v", c)
	}
}

// shadowApp wires a grandchild directly to its grandparent.
const shadowApp = `
<Application>
  <ApplicationName>Sh</ApplicationName>
  <Component>
    <InstanceName>GP</InstanceName>
    <ClassName>Parent</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port>
        <PortName>fromChild</PortName>
        <Link><PortType>External</PortType><ToComponent>GC</ToComponent><ToPort>out</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>Mid</InstanceName>
      <ClassName>Child</ClassName>
      <ComponentType>Scoped</ComponentType>
      <MemorySize>8192</MemorySize>
      <Component>
        <InstanceName>GC</InstanceName>
        <ClassName>Child</ClassName>
        <ComponentType>Scoped</ComponentType>
        <MemorySize>8192</MemorySize>
      </Component>
    </Component>
  </Component>
</Application>`

func TestCompileShadowDetection(t *testing.T) {
	plan, err := Compile(mustDefs(t), mustApp(t, shadowApp))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Connections) != 1 {
		t.Fatalf("connections = %d", len(plan.Connections))
	}
	c := plan.Connections[0]
	if c.Kind != ConnShadow {
		t.Errorf("kind = %v, want shadow", c.Kind)
	}
	if c.Mediator != "GP" {
		t.Errorf("mediator = %q, want GP (the ancestor)", c.Mediator)
	}
	if c.FromInstance != "GC" || c.ToInstance != "GP" {
		t.Errorf("orientation = %s -> %s", c.FromInstance, c.ToInstance)
	}
	// The grandchild's out port registers with the grandparent's SMM.
	if pp := plan.Port("GC", "out"); pp == nil || pp.Mediator != "GP" {
		t.Errorf("GC.out plan = %+v", pp)
	}
}

func TestConnKindString(t *testing.T) {
	if ConnInternal.String() != "internal" || ConnExternal.String() != "external" ||
		ConnShadow.String() != "shadow" || ConnKind(9).String() == "" {
		t.Error("ConnKind.String wrong")
	}
}

func compileErr(t *testing.T, defsDoc, appDoc string) error {
	t.Helper()
	defs, err := cdl.Parse(strings.NewReader(defsDoc))
	if err != nil {
		t.Fatal(err)
	}
	app, err := ccl.Parse(strings.NewReader(appDoc))
	if err != nil {
		t.Fatal(err)
	}
	_, cerr := Compile(defs, app)
	return cerr
}

func TestCompileErrors(t *testing.T) {
	wrap := func(inner string) string {
		return `<Application><ApplicationName>E</ApplicationName>` + inner + `</Application>`
	}
	top := func(class, ports string, children string) string {
		return wrap(`<Component><InstanceName>Top</InstanceName><ClassName>` + class +
			`</ClassName><ComponentType>Immortal</ComponentType>` + ports + children + `</Component>`)
	}
	kid := `<Component><InstanceName>Kid</InstanceName><ClassName>Child</ClassName><ComponentType>Scoped</ComponentType><MemorySize>1024</MemorySize></Component>`

	tests := []struct {
		name string
		app  string
	}{
		{"unknown class", top("Mystery", "", "")},
		{"unknown port", top("Parent", `<Connection><Port><PortName>bogus</PortName></Port></Connection>`, "")},
		{"attrs on out port", top("Parent", `<Connection><Port><PortName>toChild</PortName><PortAttributes><BufferSize>1</BufferSize></PortAttributes></Port></Connection>`, "")},
		{"link to unknown instance", top("Parent", `<Connection><Port><PortName>toChild</PortName><Link><PortType>Internal</PortType><ToComponent>Ghost</ToComponent><ToPort>in</ToPort></Link></Port></Connection>`, "")},
		{"link to unknown port", top("Parent", `<Connection><Port><PortName>toChild</PortName><Link><PortType>Internal</PortType><ToComponent>Kid</ToComponent><ToPort>ghost</ToPort></Link></Port></Connection>`, kid)},
		{"out to out", top("Parent", `<Connection><Port><PortName>toChild</PortName><Link><PortType>Internal</PortType><ToComponent>Kid</ToComponent><ToPort>out</ToPort></Link></Port></Connection>`, kid)},
		{"type mismatch", top("Parent", `<Connection><Port><PortName>fromChild</PortName><Link><PortType>Internal</PortType><ToComponent>Kid</ToComponent><ToPort>strOut</ToPort></Link></Port></Connection>`, kid)},
		{"internal declared external", top("Parent", `<Connection><Port><PortName>toChild</PortName><Link><PortType>External</PortType><ToComponent>Kid</ToComponent><ToPort>in</ToPort></Link></Port></Connection>`, kid)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := compileErr(t, testDefs, tt.app); !errors.Is(err, ErrCompile) {
				t.Errorf("err = %v, want ErrCompile", err)
			}
		})
	}
}

func TestCompileSelfConnectionRejected(t *testing.T) {
	const selfDefs = `
<ComponentDefinitions>
  <Component>
    <ComponentName>Loop</ComponentName>
    <Port><PortName>in</PortName><PortType>In</PortType><MessageType>T</MessageType></Port>
    <Port><PortName>out</PortName><PortType>Out</PortType><MessageType>T</MessageType></Port>
  </Component>
</ComponentDefinitions>`
	const selfApp = `
<Application><ApplicationName>S</ApplicationName>
  <Component><InstanceName>L</InstanceName><ClassName>Loop</ClassName><ComponentType>Immortal</ComponentType>
    <Connection><Port><PortName>out</PortName>
      <Link><PortType>External</PortType><ToComponent>L</ToComponent><ToPort>in</ToPort></Link>
    </Port></Connection>
  </Component>
</Application>`
	if err := compileErr(t, selfDefs, selfApp); !errors.Is(err, ErrCompile) {
		t.Errorf("self connection err = %v, want ErrCompile", err)
	}
}

func TestCompileSiblingDeclaredInternalRejected(t *testing.T) {
	bad := strings.Replace(siblingApp, "<PortType>External</PortType>", "<PortType>Internal</PortType>", 1)
	if err := compileErr(t, testDefs, bad); !errors.Is(err, ErrCompile) {
		t.Errorf("err = %v, want ErrCompile", err)
	}
}

func TestCompileThreeCycleRejected(t *testing.T) {
	// A -> B -> C -> A among siblings: a genuine loop (not request-reply).
	const app = `
<Application><ApplicationName>Cyc</ApplicationName>
  <Component><InstanceName>Top</InstanceName><ClassName>Parent</ClassName><ComponentType>Immortal</ComponentType>
    <Component><InstanceName>A</InstanceName><ClassName>Child</ClassName><ComponentType>Scoped</ComponentType><MemorySize>1024</MemorySize>
      <Connection><Port><PortName>out</PortName><Link><PortType>External</PortType><ToComponent>B</ToComponent><ToPort>in</ToPort></Link></Port></Connection>
    </Component>
    <Component><InstanceName>B</InstanceName><ClassName>Child</ClassName><ComponentType>Scoped</ComponentType><MemorySize>1024</MemorySize>
      <Connection><Port><PortName>out</PortName><Link><PortType>External</PortType><ToComponent>C</ToComponent><ToPort>in</ToPort></Link></Port></Connection>
    </Component>
    <Component><InstanceName>C</InstanceName><ClassName>Child</ClassName><ComponentType>Scoped</ComponentType><MemorySize>1024</MemorySize>
      <Connection><Port><PortName>out</PortName><Link><PortType>External</PortType><ToComponent>A</ToComponent><ToPort>in</ToPort></Link></Port></Connection>
    </Component>
  </Component>
</Application>`
	if err := compileErr(t, testDefs, app); !errors.Is(err, ErrCompile) {
		t.Errorf("three-cycle err = %v, want ErrCompile", err)
	}
}

func TestCompileRequestReplyPairAllowed(t *testing.T) {
	// A <-> B request-reply must NOT be flagged as a loop (the paper's own
	// client-server example is one).
	const app = `
<Application><ApplicationName>RR</ApplicationName>
  <Component><InstanceName>Top</InstanceName><ClassName>Parent</ClassName><ComponentType>Immortal</ComponentType>
    <Component><InstanceName>A</InstanceName><ClassName>Child</ClassName><ComponentType>Scoped</ComponentType><MemorySize>1024</MemorySize>
      <Connection><Port><PortName>out</PortName><Link><PortType>External</PortType><ToComponent>B</ToComponent><ToPort>in</ToPort></Link></Port></Connection>
    </Component>
    <Component><InstanceName>B</InstanceName><ClassName>Child</ClassName><ComponentType>Scoped</ComponentType><MemorySize>1024</MemorySize>
      <Connection><Port><PortName>out</PortName><Link><PortType>External</PortType><ToComponent>A</ToComponent><ToPort>in</ToPort></Link></Port></Connection>
    </Component>
  </Component>
</Application>`
	if err := compileErr(t, testDefs, app); err != nil {
		t.Errorf("request-reply pair rejected: %v", err)
	}
}

func TestCompileDuplicateLinkBothEndsDeduped(t *testing.T) {
	// The same connection declared on both endpoints collapses to one.
	doc := strings.Replace(siblingApp,
		`<Component>
      <InstanceName>B</InstanceName>
      <ClassName>Child</ClassName>
      <ComponentType>Scoped</ComponentType>
      <MemorySize>8192</MemorySize>
    </Component>`,
		`<Component>
      <InstanceName>B</InstanceName>
      <ClassName>Child</ClassName>
      <ComponentType>Scoped</ComponentType>
      <MemorySize>8192</MemorySize>
      <Connection>
        <Port>
          <PortName>in</PortName>
          <Link><PortType>External</PortType><ToComponent>A</ToComponent><ToPort>out</ToPort></Link>
        </Port>
      </Connection>
    </Component>`, 1)
	plan, err := Compile(mustDefs(t), mustApp(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Connections) != 1 {
		t.Errorf("connections = %d, want 1 (deduped)", len(plan.Connections))
	}
}
