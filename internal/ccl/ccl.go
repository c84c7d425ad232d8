// Package ccl implements the Compadres Component Composition Language: the
// XML dialect of Listing 1.2 of the paper, in which an application is
// assembled from component instances — nesting, port connections, thread
// pool and buffer attributes, and RTSJ memory attributes.
//
// Extensions over the paper's listing, each defaulting to the paper's
// behaviour when absent:
//
//   - <MemorySize> on a scoped instance sets its area budget when the
//     instance does not draw from a scope pool.
//   - <UsePool> selects drawing the instance's area from the scope pool of
//     its level.
//   - <Persistent> keeps the instance alive across quiescence.
//   - <Node> on a top-level instance assigns it to a deployment node (the
//     DUECA-style placement the paper's deployment model intends); instances
//     without a Node share the default node.
//   - <Replicas> on a top-level instance runs its node as that many
//     independent server processes backing the same exported ports (a
//     replicated server group; see package deploy and internal/cluster).
package ccl

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/xmldoc"
)

// ComponentType is an instance's memory binding.
type ComponentType string

// Component types as spelled in CCL files.
const (
	Immortal ComponentType = "Immortal"
	Scoped   ComponentType = "Scoped"
)

// LinkType distinguishes parent-child (internal) from sibling (external)
// connections, as in the paper's <PortType> inside <Link>.
type LinkType string

// Link types as spelled in CCL files. Remote links (an extension realising
// the paper's future work) connect an Out port to an exported In port of
// another process, addressed by <RemoteAddr>.
const (
	Internal LinkType = "Internal"
	External LinkType = "External"
	Remote   LinkType = "Remote"
)

// Threadpool is a port's thread pool strategy.
type Threadpool string

// Thread pool strategies as spelled in CCL files.
const (
	Shared    Threadpool = "Shared"
	Dedicated Threadpool = "Dedicated"
)

// ErrValidation is wrapped by every validation failure.
var ErrValidation = errors.New("ccl: validation error")

// Application is the document root. The xml tags are the schema: Parse
// reads what encoding/xml would decode into these structs. XMLName holds no
// value; its tag names the root element.
type Application struct {
	XMLName    struct{}       `xml:"Application"`
	Name       string         `xml:"ApplicationName"`
	Components []Instance     `xml:"Component"`
	RTSJ       RTSJAttributes `xml:"RTSJAttributes"`
}

// Instance is one component instance; instances nest to express the
// parent-child hierarchy.
type Instance struct {
	InstanceName string        `xml:"InstanceName"`
	ClassName    string        `xml:"ClassName"`
	Type         ComponentType `xml:"ComponentType"`
	ScopeLevel   int           `xml:"ScopeLevel,omitempty"`
	MemorySize   int64         `xml:"MemorySize,omitempty"`
	UsePool      bool          `xml:"UsePool,omitempty"`
	Persistent   bool          `xml:"Persistent,omitempty"`
	// Node places a top-level instance (and its whole subtree) on a named
	// deployment node; empty selects the default node. Only legal at the top
	// level — children deploy with their root.
	Node string `xml:"Node,omitempty"`
	// Replicas runs the instance's node as that many independent processes
	// (a replicated server group). Zero or one means unreplicated; values
	// above one require the compiler to find an exported port to reach the
	// group through. Only legal at the top level.
	Replicas   int        `xml:"Replicas,omitempty"`
	Connection Connection `xml:"Connection"`
	Children   []Instance `xml:"Component"`
}

// Connection groups an instance's port specifications.
type Connection struct {
	Ports []PortSpec `xml:"Port"`
}

// PortSpec configures one port of the instance and its links.
type PortSpec struct {
	Name       string          `xml:"PortName"`
	Attributes *PortAttributes `xml:"PortAttributes,omitempty"`
	Exported   bool            `xml:"Exported,omitempty"`
	Links      []Link          `xml:"Link"`
}

// PortAttributes configures an In port's buffer and thread pool.
type PortAttributes struct {
	BufferSize        int        `xml:"BufferSize"`
	Threadpool        Threadpool `xml:"Threadpool"`
	MinThreadpoolSize int        `xml:"MinThreadpoolSize"`
	MaxThreadpoolSize int        `xml:"MaxThreadpoolSize"`
}

// Link connects this port with a port of another instance. The link may be
// declared on either end; the compiler normalises duplicates. A Remote link
// instead targets an exported port in another process: ToComponent/ToPort
// name the remote instance's port and RemoteAddr its ORB endpoint.
type Link struct {
	Type        LinkType `xml:"PortType"`
	ToComponent string   `xml:"ToComponent"`
	ToPort      string   `xml:"ToPort"`
	RemoteAddr  string   `xml:"RemoteAddr,omitempty"`
}

// RTSJAttributes carries the memory configuration.
type RTSJAttributes struct {
	ImmortalSize int64        `xml:"ImmortalSize"`
	ScopedPools  []ScopedPool `xml:"ScopedPool"`
}

// ScopedPool configures a pool of scoped areas for one nesting level.
type ScopedPool struct {
	Level    int   `xml:"ScopeLevel"`
	Size     int64 `xml:"ScopeSize"`
	PoolSize int   `xml:"PoolSize"`
}

// Parse reads and validates a CCL document.
func Parse(r io.Reader) (*Application, error) {
	app, err := decode(r)
	if err != nil {
		return nil, fmt.Errorf("ccl: parse: %w", err)
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return app, nil
}

// decode reads a CCL document into its structs, element by element. An
// element that repeats where the schema has one value overwrites a scalar
// and adds to a struct, as encoding/xml does.
func decode(r io.Reader) (*Application, error) {
	d, err := xmldoc.Open(r, "Application")
	if err != nil {
		return nil, err
	}
	var app Application
	for d.Next() {
		switch d.Name() {
		case "ApplicationName":
			app.Name = d.Text()
		case "Component":
			app.Components = append(app.Components, Instance{})
			decodeInstance(d, &app.Components[len(app.Components)-1])
		case "RTSJAttributes":
			decodeRTSJ(d, &app.RTSJ)
		default:
			d.Skip()
		}
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return &app, nil
}

func decodeInstance(d *xmldoc.Decoder, inst *Instance) {
	for d.Next() {
		switch d.Name() {
		case "InstanceName":
			inst.InstanceName = d.Text()
		case "ClassName":
			inst.ClassName = d.Text()
		case "ComponentType":
			inst.Type = ComponentType(d.Text())
		case "ScopeLevel":
			inst.ScopeLevel = d.Int()
		case "MemorySize":
			inst.MemorySize = d.Int64()
		case "UsePool":
			inst.UsePool = d.Bool()
		case "Persistent":
			inst.Persistent = d.Bool()
		case "Node":
			inst.Node = d.Text()
		case "Replicas":
			inst.Replicas = d.Int()
		case "Connection":
			for d.Next() {
				if d.Name() != "Port" {
					d.Skip()
					continue
				}
				inst.Connection.Ports = append(inst.Connection.Ports, PortSpec{})
				decodePortSpec(d, &inst.Connection.Ports[len(inst.Connection.Ports)-1])
			}
		case "Component":
			inst.Children = append(inst.Children, Instance{})
			decodeInstance(d, &inst.Children[len(inst.Children)-1])
		default:
			d.Skip()
		}
	}
}

func decodePortSpec(d *xmldoc.Decoder, ps *PortSpec) {
	for d.Next() {
		switch d.Name() {
		case "PortName":
			ps.Name = d.Text()
		case "PortAttributes":
			if ps.Attributes == nil {
				ps.Attributes = new(PortAttributes)
			}
			decodePortAttributes(d, ps.Attributes)
		case "Exported":
			ps.Exported = d.Bool()
		case "Link":
			var l Link
			for d.Next() {
				switch d.Name() {
				case "PortType":
					l.Type = LinkType(d.Text())
				case "ToComponent":
					l.ToComponent = d.Text()
				case "ToPort":
					l.ToPort = d.Text()
				case "RemoteAddr":
					l.RemoteAddr = d.Text()
				default:
					d.Skip()
				}
			}
			ps.Links = append(ps.Links, l)
		default:
			d.Skip()
		}
	}
}

func decodePortAttributes(d *xmldoc.Decoder, a *PortAttributes) {
	for d.Next() {
		switch d.Name() {
		case "BufferSize":
			a.BufferSize = d.Int()
		case "Threadpool":
			a.Threadpool = Threadpool(d.Text())
		case "MinThreadpoolSize":
			a.MinThreadpoolSize = d.Int()
		case "MaxThreadpoolSize":
			a.MaxThreadpoolSize = d.Int()
		default:
			d.Skip()
		}
	}
}

func decodeRTSJ(d *xmldoc.Decoder, rt *RTSJAttributes) {
	for d.Next() {
		switch d.Name() {
		case "ImmortalSize":
			rt.ImmortalSize = d.Int64()
		case "ScopedPool":
			var p ScopedPool
			for d.Next() {
				switch d.Name() {
				case "ScopeLevel":
					p.Level = d.Int()
				case "ScopeSize":
					p.Size = d.Int64()
				case "PoolSize":
					p.PoolSize = d.Int()
				default:
					d.Skip()
				}
			}
			rt.ScopedPools = append(rt.ScopedPools, p)
		default:
			d.Skip()
		}
	}
}

// ParseFile reads and validates the CCL document at path.
func ParseFile(path string) (*Application, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// Validate checks the structural invariants the CCL grammar itself cannot
// express: names, nesting levels, component types, pool references, and
// sibling uniqueness. Cross-checking against the CDL (port existence,
// directions, message types, scope legality) is the compiler's job.
func (a *Application) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("%w: empty ApplicationName", ErrValidation)
	}
	if len(a.Components) == 0 {
		return fmt.Errorf("%w: no component instances", ErrValidation)
	}
	seen := make(map[string]bool)
	for i := range a.Components {
		inst := &a.Components[i]
		if inst.Type != Immortal {
			return fmt.Errorf("%w: top-level instance %q must be Immortal, got %q",
				ErrValidation, inst.InstanceName, inst.Type)
		}
		if err := inst.validate(0, seen); err != nil {
			return err
		}
	}
	poolLevels := make(map[int]bool, len(a.RTSJ.ScopedPools))
	for _, p := range a.RTSJ.ScopedPools {
		if p.Level < 1 {
			return fmt.Errorf("%w: scoped pool level %d: levels start at 1", ErrValidation, p.Level)
		}
		if p.Size <= 0 {
			return fmt.Errorf("%w: scoped pool level %d: non-positive size %d", ErrValidation, p.Level, p.Size)
		}
		if p.PoolSize < 0 {
			return fmt.Errorf("%w: scoped pool level %d: negative count", ErrValidation, p.Level)
		}
		if poolLevels[p.Level] {
			return fmt.Errorf("%w: duplicate scoped pool for level %d", ErrValidation, p.Level)
		}
		poolLevels[p.Level] = true
	}
	// Every pooled instance needs a pool at its level, and every scoped
	// instance needs a memory budget from somewhere.
	var checkMem func(inst *Instance, level int) error
	checkMem = func(inst *Instance, level int) error {
		if inst.Type == Scoped {
			if inst.UsePool {
				if !poolLevels[level] {
					return fmt.Errorf("%w: instance %q uses the level-%d pool, but none is declared",
						ErrValidation, inst.InstanceName, level)
				}
			} else if inst.MemorySize <= 0 {
				return fmt.Errorf("%w: scoped instance %q needs MemorySize or UsePool",
					ErrValidation, inst.InstanceName)
			}
		}
		for i := range inst.Children {
			if err := checkMem(&inst.Children[i], level+1); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range a.Components {
		if err := checkMem(&a.Components[i], 0); err != nil {
			return err
		}
	}
	return nil
}

func (inst *Instance) validate(level int, names map[string]bool) error {
	if inst.InstanceName == "" {
		return fmt.Errorf("%w: instance with empty name", ErrValidation)
	}
	if strings.ContainsAny(inst.InstanceName, "./ ") {
		return fmt.Errorf("%w: instance name %q contains illegal characters", ErrValidation, inst.InstanceName)
	}
	if inst.ClassName == "" {
		return fmt.Errorf("%w: instance %q: empty ClassName", ErrValidation, inst.InstanceName)
	}
	// Instance names are globally unique so connections can address them
	// unambiguously.
	if names[inst.InstanceName] {
		return fmt.Errorf("%w: duplicate instance name %q", ErrValidation, inst.InstanceName)
	}
	names[inst.InstanceName] = true

	if level != 0 {
		if inst.Node != "" {
			return fmt.Errorf("%w: nested instance %q declares a Node; placement is per top-level instance",
				ErrValidation, inst.InstanceName)
		}
		if inst.Replicas != 0 {
			return fmt.Errorf("%w: nested instance %q declares Replicas; replication is per top-level instance",
				ErrValidation, inst.InstanceName)
		}
	}
	if inst.Replicas < 0 {
		return fmt.Errorf("%w: instance %q: negative Replicas", ErrValidation, inst.InstanceName)
	}
	if strings.ContainsAny(inst.Node, "./ ") {
		return fmt.Errorf("%w: instance %q: node name %q contains illegal characters",
			ErrValidation, inst.InstanceName, inst.Node)
	}

	switch inst.Type {
	case Immortal:
		if level != 0 {
			return fmt.Errorf("%w: nested instance %q cannot be Immortal", ErrValidation, inst.InstanceName)
		}
	case Scoped:
		if level == 0 {
			return fmt.Errorf("%w: top-level instance %q cannot be Scoped", ErrValidation, inst.InstanceName)
		}
		if inst.ScopeLevel != 0 && inst.ScopeLevel != level {
			return fmt.Errorf("%w: instance %q declares ScopeLevel %d but nests at level %d",
				ErrValidation, inst.InstanceName, inst.ScopeLevel, level)
		}
	default:
		return fmt.Errorf("%w: instance %q: component type %q is not Immortal or Scoped",
			ErrValidation, inst.InstanceName, inst.Type)
	}

	ports := make(map[string]bool, len(inst.Connection.Ports))
	for i := range inst.Connection.Ports {
		ps := &inst.Connection.Ports[i]
		if ps.Name == "" {
			return fmt.Errorf("%w: instance %q: port spec with empty name", ErrValidation, inst.InstanceName)
		}
		if ports[ps.Name] {
			return fmt.Errorf("%w: instance %q: duplicate port spec %q", ErrValidation, inst.InstanceName, ps.Name)
		}
		ports[ps.Name] = true
		if attrs := ps.Attributes; attrs != nil {
			if attrs.BufferSize < 0 || attrs.MinThreadpoolSize < 0 || attrs.MaxThreadpoolSize < 0 {
				return fmt.Errorf("%w: instance %q port %q: negative attribute",
					ErrValidation, inst.InstanceName, ps.Name)
			}
			if attrs.Threadpool != "" && attrs.Threadpool != Shared && attrs.Threadpool != Dedicated {
				return fmt.Errorf("%w: instance %q port %q: thread pool %q is not Shared or Dedicated",
					ErrValidation, inst.InstanceName, ps.Name, attrs.Threadpool)
			}
		}
		for _, l := range ps.Links {
			switch l.Type {
			case Internal, External:
				if l.RemoteAddr != "" {
					return fmt.Errorf("%w: instance %q port %q: RemoteAddr on a %s link",
						ErrValidation, inst.InstanceName, ps.Name, l.Type)
				}
			case Remote:
				if l.RemoteAddr == "" {
					return fmt.Errorf("%w: instance %q port %q: Remote link without RemoteAddr",
						ErrValidation, inst.InstanceName, ps.Name)
				}
			default:
				return fmt.Errorf("%w: instance %q port %q: link type %q is not Internal, External, or Remote",
					ErrValidation, inst.InstanceName, ps.Name, l.Type)
			}
			if l.ToComponent == "" || l.ToPort == "" {
				return fmt.Errorf("%w: instance %q port %q: incomplete link",
					ErrValidation, inst.InstanceName, ps.Name)
			}
		}
	}

	for i := range inst.Children {
		child := &inst.Children[i]
		if child.Type != Scoped {
			return fmt.Errorf("%w: nested instance %q must be Scoped", ErrValidation, child.InstanceName)
		}
		if err := child.validate(level+1, names); err != nil {
			return err
		}
	}
	return nil
}
