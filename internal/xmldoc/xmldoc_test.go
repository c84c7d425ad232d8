package xmldoc

import (
	"encoding/xml"
	"strings"
	"testing"
)

// oracle is what encoding/xml reads from a <doc> holding one <v>.
type oracle struct {
	XMLName xml.Name `xml:"doc"`
	V       string   `xml:"v"`
}

// readV reads the text of the first <v> in a <doc> element.
func readV(doc string) (string, error) {
	d, err := Open(strings.NewReader(doc), "doc")
	if err != nil {
		return "", err
	}
	var v string
	for d.Next() {
		if d.Name() == "v" {
			v = d.Text()
		} else {
			d.Skip()
		}
	}
	return v, d.End()
}

func TestText(t *testing.T) {
	tests := []struct{ in, want string }{
		{"plain", "plain"},
		{" a\r\nb\rc\r\r\n ", " a\nb\nc\n\n "},
		{"a<!-- c -->b<?pi x?>c", "abc"},
		{"<![CDATA[<&>\r\n]]>x<![CDATA[]]>", "<&>\nx"},
		{"&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#x00043;&#13;\n", "<>&'\"ABC\r\n"},
		{"a<skip k='1'>b<deeper/>c</skip>d", "ad"},
		{"", ""},
	}
	for _, tt := range tests {
		doc := "<doc><v>" + tt.in + "</v></doc>"
		got, err := readV(doc)
		if err != nil || got != tt.want {
			t.Errorf("%q: read %q, %v; want %q", doc, got, err, tt.want)
		}
		var want oracle
		if err := xml.Unmarshal([]byte(doc), &want); err != nil || want.V != got {
			t.Errorf("%q: encoding/xml read %q, %v", doc, want.V, err)
		}
	}
	if got, err := readV("<doc><v/></doc>"); err != nil || got != "" {
		t.Errorf("<v/>: read %q, %v", got, err)
	}
}

// TestStricterThanOracle lists what encoding/xml reads and this package
// refuses: nothing a CDL or CCL document needs.
func TestStricterThanOracle(t *testing.T) {
	nest := func(n int) string {
		return "<doc>" + strings.Repeat("<a>", n-1) + strings.Repeat("</a>", n-1) + "</doc>"
	}
	tests := map[string]string{
		"text before the root":         "x<doc/>",
		"content after the root":       "<doc/>x",
		"a second root":                "<doc/><doc/>",
		"a namespace prefix":           "<doc><a:v/></doc>",
		"an xmlns attribute":           `<doc xmlns="urn:x"/>`,
		"a DOCTYPE":                    "<!DOCTYPE doc><doc/>",
		"a name outside ASCII":         "<doc><vé/></doc>",
		"a declaration not first":      `<!-- c --><?xml version="1.0"?><doc/>`,
		"a reference to a surrogate":   "<doc><v>&#xD800;</v></doc>",
		"no space after a PI target":   `<doc><?pi"x"?></doc>`,
		"nesting deeper than MaxDepth": nest(MaxDepth + 1),
	}
	for name, doc := range tests {
		if _, err := readV(doc); err == nil {
			t.Errorf("%s: %q accepted", name, doc)
		}
		var o oracle
		if err := xml.Unmarshal([]byte(doc), &o); err != nil {
			t.Errorf("%s: encoding/xml rejects %q too: %v", name, doc, err)
		}
	}
	if _, err := readV(nest(MaxDepth)); err != nil {
		t.Errorf("nesting MaxDepth deep: %v", err)
	}
}

func TestSyntaxErrorLine(t *testing.T) {
	_, err := readV("<doc>\n<v>\n\n</w>\n</doc>")
	if se, ok := err.(*SyntaxError); !ok || se.Line != 4 ||
		se.Error() != "XML syntax error on line 4: element <v> closed by </w>" {
		t.Errorf("err = %v", err)
	}
}

// TestSameRejections lists faults encoding/xml rejects for a reason and
// this package must reject too.
func TestSameRejections(t *testing.T) {
	tests := map[string]string{
		"]]> in text":                         "<doc><v>a]]>b</v></doc>",
		"< in an attribute value":             `<doc><v a="<"/></doc>`,
		"an unquoted attribute":               "<doc><v a=1/></doc>",
		"an attribute without a value":        "<doc><v a/></doc>",
		"an undefined entity":                 "<doc><v>&nbsp;</v></doc>",
		"an entity without ;":                 "<doc><v>&amp</v></doc>",
		"an undefined entity in an attribute": `<doc><v a="&x;"/></doc>`,
		"a reference to U+0000":               "<doc><v>&#0;</v></doc>",
		"a reference to U+FFFE":               "<doc><v>&#xFFFE;</v></doc>",
		"a reference past U+10FFFF":           "<doc><v>&#x110000;</v></doc>",
		"a reference in capital X":            "<doc><v>&#X41;</v></doc>",
		"U+0001":                              "<doc><v>\x01</v></doc>",
		"U+FFFF":                              "<doc><v>\uffff</v></doc>",
		"invalid UTF-8":                       "<doc><v>\xc3</v></doc>",
		"-- in a comment":                     "<doc><!-- a -- b --></doc>",
		"a comment ending --->":               "<doc><!-- a ---></doc>",
		"a mismatched end tag":                "<doc><v></w></doc>",
		"an unclosed element":                 "<doc><v>",
		"an unclosed CDATA section":           "<doc><v><![CDATA[x</v></doc>",
		"a name starting with a digit":        "<doc><1v/></doc>",
		"XML version 1.1":                     `<?xml version="1.1"?><doc/>`,
		"an encoding other than UTF-8":        `<?xml version="1.0" encoding="latin1"?><doc/>`,
		"the wrong root":                      "<other/>",
	}
	for name, doc := range tests {
		if _, err := readV(doc); err == nil {
			t.Errorf("%s: %q accepted", name, doc)
		}
		var o oracle
		if err := xml.Unmarshal([]byte(doc), &o); err == nil {
			t.Errorf("%s: encoding/xml accepts %q", name, doc)
		}
	}
}
