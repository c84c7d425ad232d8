package ccl

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/xmldoc"
)

// paperCCL mirrors Listing 1.2 of the paper (with MemorySize added for the
// scoped child, since this reproduction charges real budgets).
const paperCCL = `
<Application>
  <ApplicationName>MyApp</ApplicationName>
  <Component>
    <InstanceName>MyServer</InstanceName>
    <ClassName>Server</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port>
        <PortName>DataIn</PortName>
        <PortAttributes>
          <BufferSize>5</BufferSize>
          <Threadpool>Shared</Threadpool>
          <MinThreadpoolSize>2</MinThreadpoolSize>
          <MaxThreadpoolSize>10</MaxThreadpoolSize>
        </PortAttributes>
        <Link>
          <PortType>Internal</PortType>
          <ToComponent>MyCalculator</ToComponent>
          <ToPort>DataOut</ToPort>
        </Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>MyCalculator</InstanceName>
      <ClassName>Calculator</ClassName>
      <ComponentType>Scoped</ComponentType>
      <ScopeLevel>1</ScopeLevel>
      <UsePool>true</UsePool>
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

func TestParsePaperListing(t *testing.T) {
	app, err := Parse(strings.NewReader(paperCCL))
	if err != nil {
		t.Fatal(err)
	}
	if app.Name != "MyApp" {
		t.Errorf("name = %q", app.Name)
	}
	if app.RTSJ.ImmortalSize != 400000 {
		t.Errorf("immortal size = %d", app.RTSJ.ImmortalSize)
	}
	if len(app.RTSJ.ScopedPools) != 1 || app.RTSJ.ScopedPools[0].Size != 200000 || app.RTSJ.ScopedPools[0].PoolSize != 3 {
		t.Errorf("scoped pools = %+v", app.RTSJ.ScopedPools)
	}

	server := instance(app, "MyServer")
	if server == nil || server.ClassName != "Server" || server.Type != Immortal {
		t.Fatalf("MyServer = %+v", server)
	}
	if len(server.Connection.Ports) != 1 {
		t.Fatalf("ports = %d", len(server.Connection.Ports))
	}
	ps := server.Connection.Ports[0]
	if ps.Name != "DataIn" || ps.Attributes == nil || ps.Attributes.BufferSize != 5 ||
		ps.Attributes.Threadpool != Shared || ps.Attributes.MinThreadpoolSize != 2 || ps.Attributes.MaxThreadpoolSize != 10 {
		t.Errorf("DataIn spec = %+v", ps)
	}
	if len(ps.Links) != 1 || ps.Links[0].Type != Internal || ps.Links[0].ToComponent != "MyCalculator" || ps.Links[0].ToPort != "DataOut" {
		t.Errorf("link = %+v", ps.Links)
	}

	calc := instance(app, "MyCalculator")
	if calc == nil || calc.Type != Scoped || !calc.UsePool || calc.ScopeLevel != 1 {
		t.Fatalf("MyCalculator = %+v", calc)
	}

	all := instances(app)
	if len(all) != 2 || all[0].InstanceName != "MyServer" || all[1].InstanceName != "MyCalculator" {
		t.Errorf("instances = %v", all)
	}
	if instance(app, "Nope") != nil {
		t.Error("missing instance lookup returned non-nil")
	}
}

// instances returns every instance in a, parents before children, in
// document order.
func instances(a *Application) []*Instance {
	var out []*Instance
	var walk func(inst *Instance)
	walk = func(inst *Instance) {
		out = append(out, inst)
		for i := range inst.Children {
			walk(&inst.Children[i])
		}
	}
	for i := range a.Components {
		walk(&a.Components[i])
	}
	return out
}

// instance returns the instance of a with the given name, or nil.
func instance(a *Application, name string) *Instance {
	for _, inst := range instances(a) {
		if inst.InstanceName == name {
			return inst
		}
	}
	return nil
}

func wrap(inner string) string {
	return `<Application><ApplicationName>App</ApplicationName>` + inner + `</Application>`
}

func TestValidationErrors(t *testing.T) {
	tests := []struct {
		name string
		xml  string
	}{
		{"no name", `<Application><Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType></Component></Application>`},
		{"no instances", wrap(``)},
		{"top-level scoped", wrap(`<Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Scoped</ComponentType><MemorySize>10</MemorySize></Component>`)},
		{"empty instance name", wrap(`<Component><InstanceName></InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType></Component>`)},
		{"illegal instance name", wrap(`<Component><InstanceName>a b</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType></Component>`)},
		{"empty class", wrap(`<Component><InstanceName>A</InstanceName><ClassName></ClassName><ComponentType>Immortal</ComponentType></Component>`)},
		{"bad type", wrap(`<Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Heap</ComponentType></Component>`)},
		{"duplicate instances", wrap(`<Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType></Component><Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType></Component>`)},
		{"nested immortal", wrap(`<Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType><Component><InstanceName>B</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType></Component></Component>`)},
		{"wrong scope level", wrap(`<Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType><Component><InstanceName>B</InstanceName><ClassName>C</ClassName><ComponentType>Scoped</ComponentType><ScopeLevel>3</ScopeLevel><MemorySize>10</MemorySize></Component></Component>`)},
		{"scoped without memory", wrap(`<Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType><Component><InstanceName>B</InstanceName><ClassName>C</ClassName><ComponentType>Scoped</ComponentType></Component></Component>`)},
		{"pool without declaration", wrap(`<Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType><Component><InstanceName>B</InstanceName><ClassName>C</ClassName><ComponentType>Scoped</ComponentType><UsePool>true</UsePool></Component></Component>`)},
		{"duplicate port spec", wrap(`<Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType><Connection><Port><PortName>p</PortName></Port><Port><PortName>p</PortName></Port></Connection></Component>`)},
		{"bad threadpool", wrap(`<Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType><Connection><Port><PortName>p</PortName><PortAttributes><Threadpool>Weird</Threadpool></PortAttributes></Port></Connection></Component>`)},
		{"negative buffer", wrap(`<Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType><Connection><Port><PortName>p</PortName><PortAttributes><BufferSize>-1</BufferSize></PortAttributes></Port></Connection></Component>`)},
		{"bad link type", wrap(`<Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType><Connection><Port><PortName>p</PortName><Link><PortType>Diagonal</PortType><ToComponent>X</ToComponent><ToPort>q</ToPort></Link></Port></Connection></Component>`)},
		{"incomplete link", wrap(`<Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType><Connection><Port><PortName>p</PortName><Link><PortType>Internal</PortType><ToComponent></ToComponent><ToPort>q</ToPort></Link></Port></Connection></Component>`)},
		{"bad pool level", wrap(`<Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType></Component><RTSJAttributes><ScopedPool><ScopeLevel>0</ScopeLevel><ScopeSize>10</ScopeSize><PoolSize>1</PoolSize></ScopedPool></RTSJAttributes>`)},
		{"duplicate pool level", wrap(`<Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType></Component><RTSJAttributes><ScopedPool><ScopeLevel>1</ScopeLevel><ScopeSize>10</ScopeSize><PoolSize>1</PoolSize></ScopedPool><ScopedPool><ScopeLevel>1</ScopeLevel><ScopeSize>10</ScopeSize><PoolSize>1</PoolSize></ScopedPool></RTSJAttributes>`)},
		{"zero pool size", wrap(`<Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType></Component><RTSJAttributes><ScopedPool><ScopeLevel>1</ScopeLevel><ScopeSize>0</ScopeSize><PoolSize>1</PoolSize></ScopedPool></RTSJAttributes>`)},
		{"nested node", wrap(`<Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType><Component><InstanceName>B</InstanceName><ClassName>C</ClassName><ComponentType>Scoped</ComponentType><MemorySize>10</MemorySize><Node>n1</Node></Component></Component>`)},
		{"nested replicas", wrap(`<Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType><Component><InstanceName>B</InstanceName><ClassName>C</ClassName><ComponentType>Scoped</ComponentType><MemorySize>10</MemorySize><Replicas>2</Replicas></Component></Component>`)},
		{"negative replicas", wrap(`<Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType><Replicas>-1</Replicas></Component>`)},
		{"illegal node name", wrap(`<Component><InstanceName>A</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType><Node>a b</Node></Component>`)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tt.xml))
			if !errors.Is(err, ErrValidation) {
				t.Errorf("err = %v, want ErrValidation", err)
			}
		})
	}
}

func TestDeepNesting(t *testing.T) {
	xml := wrap(`<Component><InstanceName>L0</InstanceName><ClassName>C</ClassName><ComponentType>Immortal</ComponentType>
	  <Component><InstanceName>L1</InstanceName><ClassName>C</ClassName><ComponentType>Scoped</ComponentType><MemorySize>10</MemorySize>
	    <Component><InstanceName>L2</InstanceName><ClassName>C</ClassName><ComponentType>Scoped</ComponentType><MemorySize>10</MemorySize>
	      <Component><InstanceName>L3</InstanceName><ClassName>C</ClassName><ComponentType>Scoped</ComponentType><MemorySize>10</MemorySize></Component>
	    </Component>
	  </Component>
	</Component>`)
	app, err := Parse(strings.NewReader(xml))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(instances(app)); got != 4 {
		t.Errorf("instances = %d, want 4", got)
	}
}

func TestParseMalformed(t *testing.T) {
	head := "<Application>\n<ApplicationName>App</ApplicationName>\n<Component>\n"
	tail := "\n</Component>\n</Application>\n"
	tests := []struct {
		name, xml string
		line      int    // where the fault is
		msg       string // part of the error
	}{
		{"unclosed element", head + "<InstanceName>A</InstanceName>", 4, "unexpected EOF"},
		{"mismatched end tag", head + "<InstanceName>A</Instance>" + tail, 4, "element <InstanceName> closed by </Instance>"},
		{"undefined entity", head + "<ClassName>&nbsp;</ClassName>" + tail, 4, "invalid character entity &nbsp;"},
		{"control character", head + "<ClassName>C\x01</ClassName>" + tail, 4, "illegal character code U+0001"},
		{"invalid UTF-8", head + "<ClassName>C\xff</ClassName>" + tail, 4, "invalid UTF-8"},
		{"-- in a comment", head + "<!-- a -- b -->" + tail, 4, `"--" not allowed in comments`},
		{"wrong root", "<!-- app -->\n<App></App>", 2, "expected element type <Application> but have <App>"},
		{"integer not a number", head + "<ScopeLevel>x</ScopeLevel>" + tail, 4, `<ScopeLevel>: strconv.ParseInt: parsing "x": invalid syntax`},
		{"integer only whitespace", head + "<MemorySize> \n </MemorySize>" + tail, 4, `<MemorySize>: strconv.ParseInt: parsing "": invalid syntax`},
		{"boolean not a boolean", head + "<UsePool>maybe</UsePool>" + tail, 4, `<UsePool>: strconv.ParseBool: parsing "maybe": invalid syntax`},
		{"start tag not closed", "<oops", 1, "unexpected EOF"},
		{"nested past the bound", "<Application>" + strings.Repeat("\n<Component>", xmldoc.MaxDepth) +
			strings.Repeat("</Component>", xmldoc.MaxDepth) + "</Application>", xmldoc.MaxDepth + 1, "nest deeper than"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tt.xml))
			var syn *xmldoc.SyntaxError
			if err == nil || !strings.HasPrefix(err.Error(), "ccl: parse: ") || !errors.As(err, &syn) {
				t.Fatalf("err = %v, want a ccl: parse: syntax error", err)
			}
			if syn.Line != tt.line || !strings.Contains(syn.Msg, tt.msg) {
				t.Errorf("err = %v, want %q on line %d", err, tt.msg, tt.line)
			}
		})
	}
}

func TestParseFileMissing(t *testing.T) {
	if _, err := ParseFile("/nonexistent/app.xml"); err == nil {
		t.Error("missing file accepted")
	}
}
