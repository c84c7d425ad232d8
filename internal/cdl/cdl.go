// Package cdl implements the Compadres Component Definition Language: the
// XML dialect of Listing 1.1 of the paper, in which an application
// programmer declares component classes and their typed In/Out ports. The
// Compadres compiler consumes these definitions to generate component
// skeletons and to type-check the composition (CCL) file.
//
// One deviation from the paper's listing: XML requires a single document
// root, so the component list is wrapped in <ComponentDefinitions>.
package cdl

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/xmldoc"
)

// Direction is a port's direction relative to its component.
type Direction string

// Port directions as spelled in CDL files.
const (
	In  Direction = "In"
	Out Direction = "Out"
)

// ErrValidation is wrapped by every validation failure so callers can match
// the class of error with errors.Is.
var ErrValidation = errors.New("cdl: validation error")

// Definitions is the document root: the set of component classes available
// to an application. The xml tags are the schema: Parse reads what
// encoding/xml would decode into these structs. XMLName holds no value; its
// tag names the root element.
type Definitions struct {
	XMLName    struct{}    `xml:"ComponentDefinitions"`
	Components []Component `xml:"Component"`
}

// Component declares one component class.
type Component struct {
	Name  string `xml:"ComponentName"`
	Ports []Port `xml:"Port"`
}

// Port declares one port of a component class.
type Port struct {
	Name        string    `xml:"PortName"`
	Type        Direction `xml:"PortType"`
	MessageType string    `xml:"MessageType"`
}

// Parse reads and validates a CDL document.
func Parse(r io.Reader) (*Definitions, error) {
	defs, err := decode(r)
	if err != nil {
		return nil, fmt.Errorf("cdl: parse: %w", err)
	}
	if err := defs.Validate(); err != nil {
		return nil, err
	}
	return defs, nil
}

// decode reads a CDL document into its structs, element by element.
func decode(r io.Reader) (*Definitions, error) {
	d, err := xmldoc.Open(r, "ComponentDefinitions")
	if err != nil {
		return nil, err
	}
	var defs Definitions
	for d.Next() {
		if d.Name() != "Component" {
			d.Skip()
			continue
		}
		var c Component
		for d.Next() {
			switch d.Name() {
			case "ComponentName":
				c.Name = d.Text()
			case "Port":
				c.Ports = append(c.Ports, decodePort(d))
			default:
				d.Skip()
			}
		}
		defs.Components = append(defs.Components, c)
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return &defs, nil
}

func decodePort(d *xmldoc.Decoder) Port {
	var p Port
	for d.Next() {
		switch d.Name() {
		case "PortName":
			p.Name = d.Text()
		case "PortType":
			p.Type = Direction(d.Text())
		case "MessageType":
			p.MessageType = d.Text()
		default:
			d.Skip()
		}
	}
	return p
}

// ParseFile reads and validates the CDL document at path.
func ParseFile(path string) (*Definitions, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// Validate checks structural invariants: non-empty unique component names,
// non-empty unique port names per component, legal directions, and
// non-empty message types.
func (d *Definitions) Validate() error {
	if len(d.Components) == 0 {
		return fmt.Errorf("%w: no components defined", ErrValidation)
	}
	seen := make(map[string]bool, len(d.Components))
	for i := range d.Components {
		c := &d.Components[i]
		if err := c.validate(); err != nil {
			return err
		}
		if seen[c.Name] {
			return fmt.Errorf("%w: duplicate component %q", ErrValidation, c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

func (c *Component) validate() error {
	if c.Name == "" {
		return fmt.Errorf("%w: component with empty name", ErrValidation)
	}
	if strings.ContainsAny(c.Name, "./ ") {
		return fmt.Errorf("%w: component name %q contains illegal characters", ErrValidation, c.Name)
	}
	ports := make(map[string]bool, len(c.Ports))
	for i := range c.Ports {
		p := &c.Ports[i]
		if p.Name == "" {
			return fmt.Errorf("%w: component %q: port with empty name", ErrValidation, c.Name)
		}
		if strings.ContainsAny(p.Name, "./ ") {
			return fmt.Errorf("%w: component %q: port name %q contains illegal characters", ErrValidation, c.Name, p.Name)
		}
		if p.Type != In && p.Type != Out {
			return fmt.Errorf("%w: component %q port %q: direction %q is not In or Out",
				ErrValidation, c.Name, p.Name, p.Type)
		}
		if p.MessageType == "" {
			return fmt.Errorf("%w: component %q port %q: empty message type", ErrValidation, c.Name, p.Name)
		}
		if ports[p.Name] {
			return fmt.Errorf("%w: component %q: duplicate port %q", ErrValidation, c.Name, p.Name)
		}
		ports[p.Name] = true
	}
	return nil
}

// Component returns the class with the given name, or nil.
func (d *Definitions) Component(name string) *Component {
	for i := range d.Components {
		if d.Components[i].Name == name {
			return &d.Components[i]
		}
	}
	return nil
}

// Port returns the port with the given name, or nil.
func (c *Component) Port(name string) *Port {
	for i := range c.Ports {
		if c.Ports[i].Name == name {
			return &c.Ports[i]
		}
	}
	return nil
}

// InPorts returns the component's In ports in declaration order.
func (c *Component) InPorts() []Port {
	var in []Port
	for _, p := range c.Ports {
		if p.Type == In {
			in = append(in, p)
		}
	}
	return in
}

// MessageTypes returns the distinct message type names referenced by the
// definitions, in first-appearance order.
func (d *Definitions) MessageTypes() []string {
	var out []string
	seen := make(map[string]bool)
	for _, c := range d.Components {
		for _, p := range c.Ports {
			if !seen[p.MessageType] {
				seen[p.MessageType] = true
				out = append(out, p.MessageType)
			}
		}
	}
	return out
}
