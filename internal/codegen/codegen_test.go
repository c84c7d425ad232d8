package codegen

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/ccl"
	"repro/internal/cdl"
	"repro/internal/compiler"
)

const defsDoc = `
<ComponentDefinitions>
  <Component>
    <ComponentName>Server</ComponentName>
    <Port><PortName>DataOut</PortName><PortType>Out</PortType><MessageType>StringMsg</MessageType></Port>
    <Port><PortName>DataIn</PortName><PortType>In</PortType><MessageType>CustomType</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Calculator</ComponentName>
    <Port><PortName>DataOut</PortName><PortType>Out</PortType><MessageType>CustomType</MessageType></Port>
  </Component>
</ComponentDefinitions>`

const appDoc = `
<Application>
  <ApplicationName>MyApp</ApplicationName>
  <Component>
    <InstanceName>MyServer</InstanceName>
    <ClassName>Server</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port>
        <PortName>DataIn</PortName>
        <Link><PortType>Internal</PortType><ToComponent>MyCalculator</ToComponent><ToPort>DataOut</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>MyCalculator</InstanceName>
      <ClassName>Calculator</ClassName>
      <ComponentType>Scoped</ComponentType>
      <MemorySize>16384</MemorySize>
    </Component>
  </Component>
</Application>`

func parseGo(t *testing.T, f File) {
	t.Helper()
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, f.Name, f.Source, parser.AllErrors); err != nil {
		t.Errorf("%s does not parse: %v\n%s", f.Name, err, f.Source)
	}
}

func TestGenerateSkeletons(t *testing.T) {
	defs, err := cdl.Parse(strings.NewReader(defsDoc))
	if err != nil {
		t.Fatal(err)
	}
	files, err := GenerateSkeletons(defs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 { // types + 2 components
		t.Fatalf("files = %d, want 3", len(files))
	}
	byName := map[string]File{}
	for _, f := range files {
		parseGo(t, f)
		byName[f.Name] = f
	}

	types := string(byName["message_types.go"].Source)
	for _, want := range []string{"type StringMsg struct", "type CustomType struct", "func (s *StringMsg) Reset()", "stringMsgType = core.MessageType"} {
		if !strings.Contains(types, want) {
			t.Errorf("message_types.go missing %q", want)
		}
	}

	server := string(byName["server_component.go"].Source)
	for _, want := range []string{
		"type Server struct",
		"func NewServer() *Server",
		"func (s *Server) ProcessDataIn(p *core.Proc, msg core.Message) error",
		"data := msg.(*CustomType)",
		"func (s *Server) Start(p *core.Proc) error",
		"func (s *Server) Binding() compiler.ClassBinding",
		`"DataIn": core.HandlerFunc(s.ProcessDataIn)`,
	} {
		if !strings.Contains(server, want) {
			t.Errorf("server_component.go missing %q", want)
		}
	}

	calc := string(byName["calculator_component.go"].Source)
	if strings.Contains(calc, "NewHandlers") {
		t.Error("calculator (no In ports) should not wire NewHandlers")
	}
}

func TestGenerateGlue(t *testing.T) {
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
	glue, err := GenerateGlue(plan, defsDoc, appDoc, Options{Package: "myapp"})
	if err != nil {
		t.Fatal(err)
	}
	parseGo(t, glue)
	src := string(glue.Source)
	for _, want := range []string{
		"package myapp",
		"func NewApp() (*core.App, error)",
		"reg.RegisterType(stringMsgType)",
		"reg.RegisterType(customTypeType)",
		`reg.RegisterClass("Server", NewServer().Binding())`,
		`reg.RegisterClass("Calculator", NewCalculator().Binding())`,
		"compiler.Assemble(plan, reg)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("glue missing %q", want)
		}
	}
}

func TestIdentifierSanitisation(t *testing.T) {
	tests := []struct {
		give       string
		wantExport string
		wantLower  string
	}{
		{"Server", "Server", "server"},
		{"my-type", "Mytype", "mytype"},
		{"9lives", "X9lives", "x9lives"},
		{"---", "X", "x"},
	}
	for _, tt := range tests {
		if got := exportIdent(tt.give); got != tt.wantExport {
			t.Errorf("exportIdent(%q) = %q, want %q", tt.give, got, tt.wantExport)
		}
		if got := lowerIdent(tt.give); got != tt.wantLower {
			t.Errorf("lowerIdent(%q) = %q, want %q", tt.give, got, tt.wantLower)
		}
	}
}

func TestEscapeBackquote(t *testing.T) {
	in := "a `quoted` doc"
	out := escapeBackquote(in)
	// Each backquote is closed out of the raw literal and concatenated as
	// an interpreted string.
	if want := "a ` + \"`\" + `quoted` + \"`\" + ` doc"; out != want {
		t.Errorf("escapeBackquote = %q, want %q", out, want)
	}
	// The construct must survive embedding in a raw literal: generate a
	// tiny file and parse it.
	src := "package x\n\nconst doc = `" + out + "`\n"
	if _, err := parser.ParseFile(token.NewFileSet(), "x.go", src, 0); err != nil {
		t.Errorf("escaped literal does not parse: %v", err)
	}
}

const distributedAppDoc = `
<Application>
  <ApplicationName>Dist</ApplicationName>
  <Component>
    <InstanceName>MyServer</InstanceName>
    <ClassName>Server</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port>
        <PortName>DataIn</PortName>
        <Exported>true</Exported>
      </Port>
      <Port>
        <PortName>DataOut</PortName>
        <Link>
          <PortType>Remote</PortType>
          <ToComponent>Peer</ToComponent>
          <ToPort>in</ToPort>
          <RemoteAddr>peer-host:9999</RemoteAddr>
        </Link>
      </Port>
    </Connection>
  </Component>
</Application>`

func TestGenerateGlueDistributed(t *testing.T) {
	defs, err := cdl.Parse(strings.NewReader(defsDoc))
	if err != nil {
		t.Fatal(err)
	}
	app, err := ccl.Parse(strings.NewReader(distributedAppDoc))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := compiler.Compile(defs, app)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Exports) != 1 || len(plan.RemoteConnections) != 1 {
		t.Fatalf("plan exports=%d remotes=%d", len(plan.Exports), len(plan.RemoteConnections))
	}
	glue, err := GenerateGlue(plan, defsDoc, distributedAppDoc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parseGo(t, glue)
	src := string(glue.Source)
	for _, want := range []string{
		`"repro/internal/deploy"`,
		"func NewDeployment(cfg deploy.Config) (*deploy.Deployment, error)",
		"deploy.Run(plan, reg, cfg)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("distributed glue missing %q", want)
		}
	}
}
