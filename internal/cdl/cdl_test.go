package cdl

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/xmldoc"
)

// paperCDL mirrors Listing 1.1 of the paper.
const paperCDL = `
<ComponentDefinitions>
  <Component>
    <ComponentName>Server</ComponentName>
    <Port>
      <PortName>DataOut</PortName>
      <PortType>Out</PortType>
      <MessageType>String</MessageType>
    </Port>
    <Port>
      <PortName>DataIn</PortName>
      <PortType>In</PortType>
      <MessageType>CustomType</MessageType>
    </Port>
  </Component>
  <Component>
    <ComponentName>Calculator</ComponentName>
    <Port>
      <PortName>DataOut</PortName>
      <PortType>Out</PortType>
      <MessageType>CustomType</MessageType>
    </Port>
  </Component>
</ComponentDefinitions>`

func TestParsePaperListing(t *testing.T) {
	defs, err := Parse(strings.NewReader(paperCDL))
	if err != nil {
		t.Fatal(err)
	}
	if len(defs.Components) != 2 {
		t.Fatalf("components = %d, want 2", len(defs.Components))
	}
	server := defs.Component("Server")
	if server == nil {
		t.Fatal("Server not found")
	}
	if p := server.Port("DataOut"); p == nil || p.Type != Out || p.MessageType != "String" {
		t.Errorf("DataOut = %+v", p)
	}
	if p := server.Port("DataIn"); p == nil || p.Type != In || p.MessageType != "CustomType" {
		t.Errorf("DataIn = %+v", p)
	}
	if server.Port("Nope") != nil {
		t.Error("missing port lookup returned non-nil")
	}
	if defs.Component("Nope") != nil {
		t.Error("missing component lookup returned non-nil")
	}
	if got := len(server.InPorts()); got != 1 {
		t.Errorf("in ports = %d, want 1", got)
	}
	if got := len(outPorts(server)); got != 1 {
		t.Errorf("out ports = %d, want 1", got)
	}
	types := defs.MessageTypes()
	if len(types) != 2 || types[0] != "String" || types[1] != "CustomType" {
		t.Errorf("message types = %v", types)
	}
}

func TestValidationErrors(t *testing.T) {
	tests := []struct {
		name string
		xml  string
	}{
		{
			name: "empty document",
			xml:  `<ComponentDefinitions></ComponentDefinitions>`,
		},
		{
			name: "empty component name",
			xml: `<ComponentDefinitions><Component><ComponentName></ComponentName>
			</Component></ComponentDefinitions>`,
		},
		{
			name: "illegal component name",
			xml: `<ComponentDefinitions><Component><ComponentName>a.b</ComponentName>
			</Component></ComponentDefinitions>`,
		},
		{
			name: "duplicate component",
			xml: `<ComponentDefinitions>
			<Component><ComponentName>A</ComponentName></Component>
			<Component><ComponentName>A</ComponentName></Component>
			</ComponentDefinitions>`,
		},
		{
			name: "empty port name",
			xml: `<ComponentDefinitions><Component><ComponentName>A</ComponentName>
			<Port><PortName></PortName><PortType>In</PortType><MessageType>T</MessageType></Port>
			</Component></ComponentDefinitions>`,
		},
		{
			name: "bad direction",
			xml: `<ComponentDefinitions><Component><ComponentName>A</ComponentName>
			<Port><PortName>p</PortName><PortType>InOut</PortType><MessageType>T</MessageType></Port>
			</Component></ComponentDefinitions>`,
		},
		{
			name: "missing message type",
			xml: `<ComponentDefinitions><Component><ComponentName>A</ComponentName>
			<Port><PortName>p</PortName><PortType>In</PortType><MessageType></MessageType></Port>
			</Component></ComponentDefinitions>`,
		},
		{
			name: "duplicate port",
			xml: `<ComponentDefinitions><Component><ComponentName>A</ComponentName>
			<Port><PortName>p</PortName><PortType>In</PortType><MessageType>T</MessageType></Port>
			<Port><PortName>p</PortName><PortType>Out</PortType><MessageType>T</MessageType></Port>
			</Component></ComponentDefinitions>`,
		},
		{
			name: "illegal port name",
			xml: `<ComponentDefinitions><Component><ComponentName>A</ComponentName>
			<Port><PortName>p.q</PortName><PortType>In</PortType><MessageType>T</MessageType></Port>
			</Component></ComponentDefinitions>`,
		},
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

// outPorts returns c's Out ports in declaration order.
func outPorts(c *Component) []Port {
	var out []Port
	for _, p := range c.Ports {
		if p.Type == Out {
			out = append(out, p)
		}
	}
	return out
}

func TestParseMalformedXML(t *testing.T) {
	head := "<ComponentDefinitions>\n<Component>\n"
	tail := "\n</Component>\n</ComponentDefinitions>\n"
	tests := []struct {
		name, xml string
		line      int    // where the fault is
		msg       string // part of the error
	}{
		{"unclosed element", head + "<ComponentName>A</ComponentName>", 3, "unexpected EOF"},
		{"mismatched end tag", head + "<ComponentName>A</Component>" + tail, 3, "element <ComponentName> closed by </Component>"},
		{"undefined entity", head + "<ComponentName>&nbsp;</ComponentName>" + tail, 3, "invalid character entity &nbsp;"},
		{"control character", head + "<ComponentName>A\x01</ComponentName>" + tail, 3, "illegal character code U+0001"},
		{"invalid UTF-8", head + "<ComponentName>A\xff</ComponentName>" + tail, 3, "invalid UTF-8"},
		{"-- in a comment", head + "<!-- a -- b -->" + tail, 3, `"--" not allowed in comments`},
		{"wrong root", "<!-- defs -->\n<Definitions></Definitions>", 2, "expected element type <ComponentDefinitions> but have <Definitions>"},
		{"start tag not closed", "<not-closed", 1, "unexpected EOF"},
		{"nested past the bound", "<ComponentDefinitions>" + strings.Repeat("\n<Component>", xmldoc.MaxDepth) +
			strings.Repeat("</Component>", xmldoc.MaxDepth) + "</ComponentDefinitions>", xmldoc.MaxDepth + 1, "nest deeper than"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tt.xml))
			var syn *xmldoc.SyntaxError
			if err == nil || !strings.HasPrefix(err.Error(), "cdl: parse: ") || !errors.As(err, &syn) {
				t.Fatalf("err = %v, want a cdl: parse: syntax error", err)
			}
			if syn.Line != tt.line || !strings.Contains(syn.Msg, tt.msg) {
				t.Errorf("err = %v, want %q on line %d", err, tt.msg, tt.line)
			}
		})
	}
}

func TestParseFileMissing(t *testing.T) {
	if _, err := ParseFile("/nonexistent/defs.xml"); err == nil {
		t.Error("missing file accepted")
	}
}
