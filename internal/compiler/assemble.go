package compiler

import (
	"fmt"

	"repro/internal/ccl"
	"repro/internal/cdl"
	"repro/internal/core"
)

// ClassBinding supplies the programmer-written half of a component class:
// the message handlers for its In ports and the optional start function —
// the code the paper's programmer fills into the generated skeletons.
type ClassBinding struct {
	// NewHandlers returns one handler per In-port name for a fresh
	// instance. It is invoked on every (re)instantiation, so handlers may
	// carry per-instance state. May be nil for classes without In ports.
	NewHandlers func(c *core.Component) (map[string]core.Handler, error)
	// Start runs when an instance starts (the paper's _start). Optional.
	Start func(p *core.Proc) error
}

// Registry maps CDL message type names to concrete Go message types and CDL
// class names to their implementations.
type Registry struct {
	types    map[string]core.MessageType
	bindings map[string]ClassBinding
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		types:    make(map[string]core.MessageType),
		bindings: make(map[string]ClassBinding),
	}
}

// RegisterType binds a CDL message type name to its Go representation.
func (r *Registry) RegisterType(t core.MessageType) error {
	if t.Name == "" || t.New == nil || t.Size <= 0 {
		return fmt.Errorf("%w: invalid message type %q", ErrCompile, t.Name)
	}
	if _, dup := r.types[t.Name]; dup {
		return fmt.Errorf("%w: message type %q registered twice", ErrCompile, t.Name)
	}
	r.types[t.Name] = t
	return nil
}

// Type returns the registered Go representation of a CDL message type.
func (r *Registry) Type(name string) (core.MessageType, bool) {
	t, ok := r.types[name]
	return t, ok
}

// RegisterClass binds a CDL class name to its implementation.
func (r *Registry) RegisterClass(name string, b ClassBinding) error {
	if name == "" {
		return fmt.Errorf("%w: empty class name", ErrCompile)
	}
	if _, dup := r.bindings[name]; dup {
		return fmt.Errorf("%w: class %q registered twice", ErrCompile, name)
	}
	r.bindings[name] = b
	return nil
}

// check rejects the subtree rooted at the named instance if a port's message
// type has no registered Go type or a class with In ports has no binding.
func (r *Registry) check(plan *Plan, name string) error {
	ip := plan.Instances[name]
	for _, pp := range ip.Ports {
		if _, ok := r.types[pp.Type]; !ok {
			return fmt.Errorf("%w: message type %q (port %s) has no registered Go type",
				ErrCompile, pp.Type, pp.QualifiedName())
		}
	}
	if _, ok := r.bindings[ip.Class.Name]; !ok && len(inPorts(ip)) > 0 {
		return fmt.Errorf("%w: class %q has In ports but no registered binding",
			ErrCompile, ip.Class.Name)
	}
	for _, c := range ip.Children {
		if err := r.check(plan, c); err != nil {
			return err
		}
	}
	return nil
}

// Assemble builds a runnable core.App from a compiled plan and the
// programmer-supplied implementations — the runtime equivalent of the RTSJ
// glue code the paper's compiler generates. The returned app has not been
// started; call App.Start.
func Assemble(plan *Plan, reg *Registry) (*core.App, error) {
	// Up-front checks so failures surface before any instantiation.
	for _, name := range plan.Order {
		if plan.Instances[name].Parent != "" {
			continue
		}
		if err := reg.check(plan, name); err != nil {
			return nil, err
		}
	}

	appCfg := core.AppConfig{
		Name:         plan.AppName,
		ImmortalSize: plan.RTSJ.ImmortalSize,
	}
	for _, sp := range plan.RTSJ.ScopedPools {
		appCfg.ScopePools = append(appCfg.ScopePools, core.ScopePoolSpec{
			Level: sp.Level, AreaSize: sp.Size, Count: sp.PoolSize,
		})
	}
	app, err := core.NewApp(appCfg)
	if err != nil {
		return nil, err
	}

	asm := &assembler{plan: plan, reg: reg, app: app}
	// Pass A: create every top-level component so immortal-sibling
	// mediators resolve regardless of document order.
	var tops []*core.Component
	for _, name := range plan.Order {
		ip := plan.Instances[name]
		if ip.Parent != "" {
			continue
		}
		c, err := app.NewImmortalComponent(name, nil)
		if err != nil {
			return nil, err
		}
		tops = append(tops, c)
	}
	// Pass B: wire ports, children, and start functions.
	for _, c := range tops {
		if err := asm.populate(c); err != nil {
			return nil, err
		}
	}
	return app, nil
}

type assembler struct {
	plan *Plan
	reg  *Registry
	app  *core.App
}

// populate wires one instantiated component per its plan: ports, child
// definitions, and start function.
func (a *assembler) populate(c *core.Component) error {
	ip := a.plan.Instances[c.Name()]
	binding := a.reg.bindings[ip.Class.Name]

	var handlers map[string]core.Handler
	if binding.NewHandlers != nil {
		var err error
		handlers, err = binding.NewHandlers(c)
		if err != nil {
			return fmt.Errorf("class %q handlers for %q: %w", ip.Class.Name, c.Name(), err)
		}
	}

	for _, pp := range ip.Ports {
		smm, err := a.resolveSMM(c, pp.Mediator)
		if err != nil {
			return err
		}
		typ := a.reg.types[pp.Type]
		if pp.Direction == cdl.Out {
			if _, err := core.AddOutPort(c, smm, core.OutPortConfig{
				Name: pp.Port, Type: typ, Dests: pp.Dests,
			}); err != nil {
				return fmt.Errorf("instance %q: %w", c.Name(), err)
			}
			continue
		}
		h := handlers[pp.Port]
		if h == nil {
			return fmt.Errorf("%w: class %q provides no handler for In port %q",
				ErrCompile, ip.Class.Name, pp.Port)
		}
		icfg := core.InPortConfig{
			Name: pp.Port, Type: typ, Handler: h,
			BufferSize: pp.Buffer,
		}
		if a.exported(pp) {
			// The sender is a server thread at the near end of a buffered
			// wire: a full buffer must park it, which stops its reads and so
			// the remote sender, not fail the remote send.
			icfg.Overflow = core.OverflowBlock
		}
		if pp.HasAttrs {
			switch {
			case pp.Min == 0 && pp.Max == 0:
				icfg.Threading = core.ThreadingSynchronous
			case pp.Threadpool == ccl.Dedicated:
				icfg.Threading = core.ThreadingDedicated
			default:
				icfg.Threading = core.ThreadingShared
			}
			icfg.MinThreads, icfg.MaxThreads = pp.Min, pp.Max
		}
		if _, err := core.AddInPort(c, smm, icfg); err != nil {
			return fmt.Errorf("instance %q: %w", c.Name(), err)
		}
	}

	for _, childName := range ip.Children {
		if err := c.DefineChild(a.childDef(childName)); err != nil {
			return fmt.Errorf("instance %q child %q: %w", c.Name(), childName, err)
		}
	}

	if binding.Start != nil {
		c.SetStart(binding.Start)
	}
	return nil
}

// childDef is the blueprint of the named child instance, its Setup the
// populate pass that wires it.
func (a *assembler) childDef(name string) core.ChildDef {
	inst := a.plan.Instances[name].Inst
	return core.ChildDef{
		Name:       name,
		MemorySize: inst.MemorySize,
		UsePool:    inst.UsePool,
		Persistent: inst.Persistent,
		Setup:      func(c *core.Component) error { return a.populate(c) },
	}
}

// exported reports whether the plan publishes pp to other processes.
func (a *assembler) exported(pp *PortPlan) bool {
	for _, ex := range a.plan.Exports {
		if ex.Instance == pp.Instance && ex.Port == pp.Port {
			return true
		}
	}
	return false
}

// resolveSMM locates the SMM of the named mediator instance relative to c:
// c itself, one of its ancestors, or (for immortal siblings) a top-level
// component.
func (a *assembler) resolveSMM(c *core.Component, mediator string) (*core.SMM, error) {
	for cc := c; cc != nil; cc = cc.Parent() {
		if cc.Name() == mediator {
			return cc.SMM(), nil
		}
	}
	if top := a.app.Component(mediator); top != nil {
		return top.SMM(), nil
	}
	return nil, fmt.Errorf("%w: mediator %q not reachable from instance %q",
		ErrCompile, mediator, c.Name())
}

func inPorts(ip *InstancePlan) []*PortPlan {
	var out []*PortPlan
	for _, pp := range ip.Ports {
		if pp.Direction == cdl.In {
			out = append(out, pp)
		}
	}
	return out
}
