// Package compiler implements the Compadres compiler: it validates a CCL
// composition against the CDL definitions it draws classes from, plans the
// scoped memory architecture (which SMM mediates each connection, which
// connections are shadow ports), and either assembles the application at
// runtime (Assemble) or emits Go skeleton/glue source (package codegen
// consumes the same Plan).
//
// The validation reproduces §2.2 of the paper: Out ports connect to In
// ports, message types match exactly, connections respect the hierarchy
// (internal links join a parent with its child, external links join
// siblings), there are no loops, and every connection can be mapped onto a
// memory area that both endpoints may legally reference.
package compiler

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/ccl"
	"repro/internal/cdl"
)

// ErrCompile is wrapped by every compilation failure.
var ErrCompile = errors.New("compiler: error")

// ConnKind classifies a validated connection.
type ConnKind int

// Connection kinds. Internal joins a parent and a direct child; External
// joins siblings; Shadow joins a component with a non-immediate ancestor
// (detected by the compiler, per Fig. 5 of the paper).
const (
	ConnInternal ConnKind = iota + 1
	ConnExternal
	ConnShadow
)

// String returns the kind name.
func (k ConnKind) String() string {
	switch k {
	case ConnInternal:
		return "internal"
	case ConnExternal:
		return "external"
	case ConnShadow:
		return "shadow"
	default:
		return fmt.Sprintf("ConnKind(%d)", int(k))
	}
}

// Connection is one validated, oriented port connection.
type Connection struct {
	// FromInstance/FromPort is the Out side.
	FromInstance, FromPort string
	// ToInstance/ToPort is the In side.
	ToInstance, ToPort string
	// MessageType is the (matching) type of both ports.
	MessageType string
	// Kind classifies the relationship.
	Kind ConnKind
	// Mediator is the instance whose SMM carries the connection's message
	// pool and buffer.
	Mediator string
}

// PortPlan is the resolved configuration of one instance port.
type PortPlan struct {
	Instance  string
	Port      string
	Direction cdl.Direction
	Type      string
	// Mediator is the instance whose SMM the port registers with.
	Mediator string
	// Dests lists qualified destination names (Out ports only).
	Dests []string
	// Buffer/Threadpool/Min/Max configure In ports. HasAttrs records
	// whether the CCL declared them explicitly: per the paper, explicit
	// zero pool sizes select synchronous dispatch on the sending thread.
	Buffer     int
	Threadpool ccl.Threadpool
	Min, Max   int
	HasAttrs   bool

	mediatorSet bool
}

// QualifiedName returns "Instance.Port".
func (p *PortPlan) QualifiedName() string { return p.Instance + "." + p.Port }

// InstancePlan is the resolved configuration of one component instance.
type InstancePlan struct {
	Inst     *ccl.Instance
	Class    *cdl.Component
	Parent   string // empty for top-level instances
	Level    int
	Ports    []*PortPlan
	Children []string
}

// RemoteConnection is one Remote link: an Out port of a top-level local
// instance feeding an exported In port in another process.
type RemoteConnection struct {
	// FromInstance/FromPort is the local Out side.
	FromInstance, FromPort string
	// Addr is the remote process's ORB endpoint.
	Addr string
	// Dest is the exported remote port's qualified name ("Instance.Port").
	Dest string
	// MessageType is the local port's type (the remote side must agree).
	MessageType string
	// BridgePort is the generated local In-port name that carries the
	// traffic onto the network; the assembler creates it on FromInstance.
	BridgePort string
}

// Export is one In port published on the process's ORB server.
type Export struct {
	// Instance/Port name the local In port.
	Instance, Port string
	// MessageType is the port's type.
	MessageType string
}

// Plan is the compiler's output: everything the runtime assembler or the
// code generator needs.
type Plan struct {
	AppName     string
	RTSJ        ccl.RTSJAttributes
	Defs        *cdl.Definitions
	Order       []string // instance names, parents before children
	Instances   map[string]*InstancePlan
	Connections []Connection
	// RemoteConnections and Exports carry the distributed extension; they
	// are empty for single-process applications. See package deploy.
	RemoteConnections []RemoteConnection
	Exports           []Export
	// Nodes is the placement plan (placement.go): one entry per deployment
	// node, document order; a single default-node entry when the CCL
	// declares no placement. ReplicatedExports maps a replicated node's
	// exported ports ("Instance.Port") to its replica count — the groups a
	// deployment's directory serves.
	Nodes             []*NodePlan
	ReplicatedExports map[string]int
}

// Compile validates app against defs and produces the assembly plan.
func Compile(defs *cdl.Definitions, app *ccl.Application) (*Plan, error) {
	if err := defs.Validate(); err != nil {
		return nil, err
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}

	p := &Plan{
		AppName:   app.Name,
		RTSJ:      app.RTSJ,
		Defs:      defs,
		Instances: make(map[string]*InstancePlan),
	}

	// Pass 1: resolve classes and build the instance tree.
	var build func(inst *ccl.Instance, parent string, level int) error
	build = func(inst *ccl.Instance, parent string, level int) error {
		class := defs.Component(inst.ClassName)
		if class == nil {
			return fmt.Errorf("%w: instance %q: unknown class %q", ErrCompile, inst.InstanceName, inst.ClassName)
		}
		ip := &InstancePlan{Inst: inst, Class: class, Parent: parent, Level: level}
		p.Instances[inst.InstanceName] = ip
		p.Order = append(p.Order, inst.InstanceName)
		for i := range inst.Children {
			child := &inst.Children[i]
			ip.Children = append(ip.Children, child.InstanceName)
			if err := build(child, inst.InstanceName, level+1); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range app.Components {
		if err := build(&app.Components[i], "", 0); err != nil {
			return nil, err
		}
	}

	// Pass 2: normalise links into oriented connections.
	seen := make(map[Connection]ccl.LinkType)
	for _, name := range p.Order {
		ip := p.Instances[name]
		for i := range ip.Inst.Connection.Ports {
			ps := &ip.Inst.Connection.Ports[i]
			port := ip.Class.Port(ps.Name)
			if port == nil {
				return nil, fmt.Errorf("%w: instance %q (class %q) has no port %q",
					ErrCompile, name, ip.Class.Name, ps.Name)
			}
			if ps.Attributes != nil && port.Type != cdl.In {
				return nil, fmt.Errorf("%w: instance %q port %q: PortAttributes on an Out port",
					ErrCompile, name, ps.Name)
			}
			if ps.Exported {
				if port.Type != cdl.In {
					return nil, fmt.Errorf("%w: instance %q port %q: only In ports can be exported",
						ErrCompile, name, ps.Name)
				}
				if ip.Parent != "" {
					return nil, fmt.Errorf("%w: instance %q port %q: only top-level instances' ports can be exported",
						ErrCompile, name, ps.Name)
				}
				p.Exports = append(p.Exports, Export{
					Instance: name, Port: ps.Name, MessageType: port.MessageType,
				})
			}
			for _, link := range ps.Links {
				if link.Type == ccl.Remote {
					if err := p.addRemote(name, ip, port, link); err != nil {
						return nil, err
					}
					continue
				}
				conn, err := p.orient(name, port, link)
				if err != nil {
					return nil, err
				}
				if prevType, dup := seen[*conn]; dup {
					if prevType != link.Type {
						return nil, fmt.Errorf("%w: connection %s.%s -> %s.%s declared with conflicting link types",
							ErrCompile, conn.FromInstance, conn.FromPort, conn.ToInstance, conn.ToPort)
					}
					continue // declared on both ends; keep one
				}
				seen[*conn] = link.Type
				p.Connections = append(p.Connections, *conn)
			}
		}
	}

	// Pass 3: check for loops in the port graph and for self-connections.
	if err := p.checkLoops(); err != nil {
		return nil, err
	}

	// Pass 4: derive per-port plans and check mediator consistency.
	if err := p.buildPortPlans(); err != nil {
		return nil, err
	}

	// Pass 5: placement — node plans, cross-node legality, replica groups.
	if err := p.buildPlacement(); err != nil {
		return nil, err
	}
	return p, nil
}

// orient turns a link declared on (inst, port) into an Out->In connection,
// validating directions, types, the hierarchy relationship, and the
// declared link type.
func (p *Plan) orient(inst string, port *cdl.Port, link ccl.Link) (*Connection, error) {
	other := p.Instances[link.ToComponent]
	if other == nil {
		return nil, fmt.Errorf("%w: instance %q port %q links to unknown instance %q",
			ErrCompile, inst, port.Name, link.ToComponent)
	}
	otherPort := other.Class.Port(link.ToPort)
	if otherPort == nil {
		return nil, fmt.Errorf("%w: instance %q (class %q) has no port %q",
			ErrCompile, link.ToComponent, other.Class.Name, link.ToPort)
	}
	if port.Type == otherPort.Type {
		return nil, fmt.Errorf("%w: %s.%s and %s.%s are both %s ports; Out must connect to In",
			ErrCompile, inst, port.Name, link.ToComponent, link.ToPort, port.Type)
	}
	if port.MessageType != otherPort.MessageType {
		return nil, fmt.Errorf("%w: %s.%s sends %q but %s.%s carries %q; message types must match exactly",
			ErrCompile, inst, port.Name, port.MessageType, link.ToComponent, link.ToPort, otherPort.MessageType)
	}

	conn := &Connection{MessageType: port.MessageType}
	if port.Type == cdl.Out {
		conn.FromInstance, conn.FromPort = inst, port.Name
		conn.ToInstance, conn.ToPort = link.ToComponent, link.ToPort
	} else {
		conn.FromInstance, conn.FromPort = link.ToComponent, link.ToPort
		conn.ToInstance, conn.ToPort = inst, port.Name
	}
	if conn.FromInstance == conn.ToInstance {
		return nil, fmt.Errorf("%w: %s.%s -> %s.%s connects a component to itself",
			ErrCompile, conn.FromInstance, conn.FromPort, conn.ToInstance, conn.ToPort)
	}

	kind, mediator, err := p.classify(conn.FromInstance, conn.ToInstance)
	if err != nil {
		return nil, err
	}
	conn.Kind = kind
	conn.Mediator = mediator

	// The declared link type must agree with the topology. Shadow
	// connections are *detected*, not declared: the paper has programmers
	// specify the direct connection and the compiler recognises it.
	switch kind {
	case ConnInternal:
		if link.Type != ccl.Internal {
			return nil, fmt.Errorf("%w: %s.%s -> %s.%s joins parent and child; link type must be Internal",
				ErrCompile, conn.FromInstance, conn.FromPort, conn.ToInstance, conn.ToPort)
		}
	case ConnExternal:
		if link.Type != ccl.External {
			return nil, fmt.Errorf("%w: %s.%s -> %s.%s joins siblings; link type must be External",
				ErrCompile, conn.FromInstance, conn.FromPort, conn.ToInstance, conn.ToPort)
		}
	case ConnShadow:
		// Either spelling accepted; the compiler records the detection.
	}
	return conn, nil
}

// addRemote records a Remote link: the local Out side of a cross-process
// connection. The remote endpoint is opaque at compile time (its own
// process compiles it), so only the local half is validated.
func (p *Plan) addRemote(inst string, ip *InstancePlan, port *cdl.Port, link ccl.Link) error {
	if port.Type != cdl.Out {
		return fmt.Errorf("%w: instance %q port %q: Remote links attach to Out ports",
			ErrCompile, inst, port.Name)
	}
	if ip.Parent != "" {
		return fmt.Errorf("%w: instance %q port %q: only top-level instances may hold Remote links",
			ErrCompile, inst, port.Name)
	}
	rc := RemoteConnection{
		FromInstance: inst,
		FromPort:     port.Name,
		Addr:         link.RemoteAddr,
		Dest:         link.ToComponent + "." + link.ToPort,
		MessageType:  port.MessageType,
		BridgePort:   fmt.Sprintf("remoteLink%d", len(p.RemoteConnections)),
	}
	p.RemoteConnections = append(p.RemoteConnections, rc)
	return nil
}

// classify determines the relationship between two instances and the SMM
// mediator for their connection.
func (p *Plan) classify(from, to string) (ConnKind, string, error) {
	fi, ti := p.Instances[from], p.Instances[to]
	switch {
	case fi.Parent == to:
		// Child -> parent: the parent's own SMM mediates (internal port).
		return ConnInternal, to, nil
	case ti.Parent == from:
		// Parent -> child.
		return ConnInternal, from, nil
	case fi.Parent == ti.Parent && fi.Parent != "":
		// Siblings: the common parent's SMM mediates.
		return ConnExternal, fi.Parent, nil
	case fi.Parent == "" && ti.Parent == "":
		// Two immortal top-level components: both live in immortal memory,
		// the receiver's SMM mediates.
		return ConnExternal, to, nil
	}
	// Shadow: one endpoint is a non-immediate ancestor of the other. The
	// paper defines the child -> ancestor direction (Fig. 5); the ancestor's
	// own SMM carries the pool and buffer.
	if isAncestor(p, to, from) {
		return ConnShadow, to, nil
	}
	if isAncestor(p, from, to) {
		return ConnShadow, from, nil
	}
	return 0, "", fmt.Errorf("%w: %q and %q are neither parent/child, siblings, nor ancestor/descendant; no legal memory area can carry their messages",
		ErrCompile, from, to)
}

// isAncestor reports whether anc is a strict ancestor of inst.
func isAncestor(p *Plan, anc, inst string) bool {
	for cur := p.Instances[inst].Parent; cur != ""; cur = p.Instances[cur].Parent {
		if cur == anc {
			return true
		}
	}
	return false
}

// checkLoops rejects cycles in the port graph. Connections only run Out->In
// across components, so a cycle requires a chain of connections returning to
// the very same In port through components' internal forwarding; the
// compiler conservatively rejects exact duplicate edges (already deduped)
// and cycles over the port graph in which each component is assumed to
// forward from every In port to every Out port.
func (p *Plan) checkLoops() error {
	// Conservative component-level graph, excluding request/reply pairs:
	// an edge A->B and an edge B->A between the *same pair* of components
	// is the ubiquitous request-reply idiom, which the paper's own
	// client-server example uses; a loop through three or more components
	// is rejected.
	adj := make(map[string]map[string]bool)
	for _, c := range p.Connections {
		if adj[c.FromInstance] == nil {
			adj[c.FromInstance] = make(map[string]bool)
		}
		adj[c.FromInstance][c.ToInstance] = true
	}
	state := make(map[string]int) // 0 unvisited, 1 in stack, 2 done
	var stack []string
	var dfs func(n string) error
	dfs = func(n string) error {
		state[n] = 1
		stack = append(stack, n)
		for m := range adj[n] {
			// Skip the immediate back-edge of a request-reply pair.
			if len(stack) >= 2 && stack[len(stack)-2] == m {
				continue
			}
			switch state[m] {
			case 0:
				if err := dfs(m); err != nil {
					return err
				}
			case 1:
				return fmt.Errorf("%w: connection loop detected through %q and %q", ErrCompile, n, m)
			}
		}
		stack = stack[:len(stack)-1]
		state[n] = 2
		return nil
	}
	nodes := make([]string, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		if state[n] == 0 {
			if err := dfs(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildPortPlans derives one PortPlan per declared port, aggregating
// connection destinations and enforcing that all connections of a port
// agree on a single mediator SMM.
func (p *Plan) buildPortPlans() error {
	plans := make(map[string]*PortPlan)
	get := func(inst, port string) *PortPlan {
		key := inst + "." + port
		if pp, ok := plans[key]; ok {
			return pp
		}
		ip := p.Instances[inst]
		cp := ip.Class.Port(port)
		pp := &PortPlan{
			Instance:  inst,
			Port:      port,
			Direction: cp.Type,
			Type:      cp.MessageType,
			Mediator:  inst, // provisional; fixed by connections
		}
		plans[key] = pp
		ip.Ports = append(ip.Ports, pp)
		return pp
	}

	for _, c := range p.Connections {
		from := get(c.FromInstance, c.FromPort)
		to := get(c.ToInstance, c.ToPort)
		if err := setMediator(from, c.Mediator); err != nil {
			return err
		}
		if err := setMediator(to, c.Mediator); err != nil {
			return err
		}
		from.Dests = append(from.Dests, c.ToInstance+"."+c.ToPort)
	}

	// Remote links: the Out port targets a generated bridge In port on the
	// same (top-level) instance, so both register with that instance's SMM.
	for _, rc := range p.RemoteConnections {
		from := get(rc.FromInstance, rc.FromPort)
		if err := setMediator(from, rc.FromInstance); err != nil {
			return err
		}
		from.Dests = append(from.Dests, rc.FromInstance+"."+rc.BridgePort)
	}

	// Fold CCL port attributes into the In-port plans; also materialise
	// declared-but-unconnected ports so skeleton generation sees them.
	for _, name := range p.Order {
		ip := p.Instances[name]
		for i := range ip.Inst.Connection.Ports {
			ps := &ip.Inst.Connection.Ports[i]
			pp := get(name, ps.Name)
			if ps.Attributes != nil {
				pp.Buffer = ps.Attributes.BufferSize
				pp.Threadpool = ps.Attributes.Threadpool
				pp.Min = ps.Attributes.MinThreadpoolSize
				pp.Max = ps.Attributes.MaxThreadpoolSize
				pp.HasAttrs = true
			}
		}
	}
	return nil
}

// setMediator records a mediator requirement on a port plan, rejecting
// conflicts: a port registers with exactly one SMM.
func setMediator(pp *PortPlan, mediator string) error {
	if !pp.mediatorSet {
		pp.Mediator = mediator
		pp.mediatorSet = true
		return nil
	}
	if pp.Mediator != mediator {
		return fmt.Errorf("%w: port %s needs SMMs of both %q and %q; a port registers with exactly one scoped memory manager",
			ErrCompile, pp.QualifiedName(), pp.Mediator, mediator)
	}
	return nil
}
