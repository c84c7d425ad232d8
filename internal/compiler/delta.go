// Plan deltas: the compile-time half of live reconfiguration. Diff takes
// two compiled plans — the running one and its successor — and produces an
// ordered swap script a deployment can apply to the live assembly
// (package deploy, Deployment.Apply): child-subtree swaps first, then
// destination rewires that add routes, then rewires that remove them
// (make-before-break). Everything a live assembly cannot absorb without a
// process restart is rejected here, before any state changes: the delta is
// all-or-nothing at validation time.
package compiler

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cdl"
	"repro/internal/core"
)

// ErrIllegalDelta reports a plan change that cannot be applied to a live
// assembly — it needs a restart (or a rolling replica upgrade) instead.
var ErrIllegalDelta = errors.New("compiler: plan delta cannot be applied live")

// DeltaOp is one kind of live-reconfiguration step.
type DeltaOp int

// Delta operations.
const (
	// OpSwapChild replaces a top-level instance's child subtree: the child's
	// blueprint (class, memory, persistence — and everything beneath it) is
	// re-installed from the new plan via SMM.Swap.
	OpSwapChild DeltaOp = iota + 1
	// OpRewire replaces an Out port's destination list via SMM.Rewire.
	OpRewire
)

// String returns the op name.
func (o DeltaOp) String() string {
	switch o {
	case OpSwapChild:
		return "swap-child"
	case OpRewire:
		return "rewire"
	default:
		return fmt.Sprintf("DeltaOp(%d)", int(o))
	}
}

// DeltaStep is one ordered step of a swap script.
type DeltaStep struct {
	Op DeltaOp
	// Parent/Child name an OpSwapChild: Parent is the top-level instance
	// whose SMM hosts the swap, Child its direct child being replaced.
	Parent, Child string
	// Mediator/Port/Dests describe an OpRewire: Mediator is the top-level
	// instance whose SMM registered the port, Port the qualified Out-port
	// name, Dests the new destination list.
	Mediator, Port string
	Dests          []string
}

// Delta is an ordered swap script turning the running plan into the new one.
type Delta struct {
	// Old is the plan the assembly is running; New the plan to reach.
	Old, New *Plan
	// Steps is the apply order: swaps (plan order), additive rewires,
	// removing rewires.
	Steps []DeltaStep
}

// Diff computes the ordered swap script from old to new, rejecting any
// change a live assembly cannot absorb:
//
//   - instance additions, removals, re-parenting, or re-levelling
//   - any change to a top-level instance itself (class, memory, node,
//     replicas) — top-level components are immortal
//   - port-attribute or mediator changes on top-level instances' ports
//     (child-port changes fold into their subtree's swap)
//   - export, remote-link, placement, or RTSJ memory changes
//
// What survives: child-subtree blueprint changes (class, memory size, pool
// use, persistence, anything on a grandchild) become OpSwapChild on the
// child's top-level ancestor, and destination-list changes on top-level
// instances' Out ports become OpRewire.
func Diff(oldPlan, newPlan *Plan) (*Delta, error) {
	if oldPlan == nil || newPlan == nil {
		return nil, fmt.Errorf("%w: nil plan", ErrIllegalDelta)
	}
	if oldPlan.AppName != newPlan.AppName {
		return nil, fmt.Errorf("%w: application renamed %q -> %q", ErrIllegalDelta, oldPlan.AppName, newPlan.AppName)
	}
	if err := diffRTSJ(oldPlan, newPlan); err != nil {
		return nil, err
	}
	if err := diffTree(oldPlan, newPlan); err != nil {
		return nil, err
	}
	if err := diffPlacement(oldPlan, newPlan); err != nil {
		return nil, err
	}
	if err := diffDistribution(oldPlan, newPlan); err != nil {
		return nil, err
	}

	// Decide, per instance, whether its blueprint changed; deep changes taint
	// the depth-1 ancestor whose subtree a single SMM.Swap replaces.
	swapRoot := make(map[string]string) // depth-1 child -> top-level parent
	taint := func(name string) error {
		ip := newPlan.Instances[name]
		if ip.Parent == "" {
			return fmt.Errorf("%w: top-level instance %q changed; immortal components cannot be swapped live",
				ErrIllegalDelta, name)
		}
		child, parent := name, ip.Parent
		for newPlan.Instances[parent].Parent != "" {
			child, parent = parent, newPlan.Instances[parent].Parent
		}
		swapRoot[child] = parent
		return nil
	}
	for _, name := range newPlan.Order {
		oi, ni := oldPlan.Instances[name].Inst, newPlan.Instances[name].Inst
		if oldPlan.Instances[name].Class.Name != newPlan.Instances[name].Class.Name ||
			oi.MemorySize != ni.MemorySize || oi.UsePool != ni.UsePool ||
			oi.Persistent != ni.Persistent || oi.ScopeLevel != ni.ScopeLevel {
			if err := taint(name); err != nil {
				return nil, err
			}
		}
	}

	// Port-level differences. Ports inside a tainted subtree are re-created
	// by its swap; everything else must either be identical or a legal
	// top-level rewire.
	var addRewires, cutRewires []DeltaStep
	inSwap := func(inst string) bool {
		for cur := inst; cur != ""; cur = newPlan.Instances[cur].Parent {
			if _, ok := swapRoot[cur]; ok {
				return true
			}
		}
		return false
	}
	names := portPlanNames(oldPlan, newPlan)
	for _, qname := range names {
		op, np := portPlanByName(oldPlan, qname), portPlanByName(newPlan, qname)
		inst := qname.inst
		topLevel := newPlan.Instances[inst] != nil && newPlan.Instances[inst].Parent == ""
		switch {
		case op == nil || np == nil:
			// A port that exists in only one plan (connection-materialised).
			if inSwap(inst) {
				continue
			}
			if !topLevel {
				// An In port that merely lost its last connection is benign:
				// the live registration stays, dormant. Anything else — a new
				// port to register, an Out port with stale routes — needs the
				// subtree re-created.
				if np == nil && op.Direction == cdl.In {
					continue
				}
				if err := taint(inst); err != nil {
					return nil, err
				}
				continue
			}
			// A top-level Out port losing every connection is a rewire to
			// nothing; gaining a first-ever port cannot be done live.
			if np == nil && op.Direction == cdl.Out {
				cutRewires = append(cutRewires, DeltaStep{
					Op: OpRewire, Mediator: op.Mediator, Port: op.QualifiedName(), Dests: nil,
				})
				continue
			}
			return nil, fmt.Errorf("%w: port %s.%s appears on a live top-level instance",
				ErrIllegalDelta, qname.inst, qname.port)
		case inSwap(inst):
			continue // the subtree swap re-creates it
		case op.Mediator != np.Mediator:
			return nil, fmt.Errorf("%w: port %s moves mediator %q -> %q; a live port keeps its scoped memory manager",
				ErrIllegalDelta, op.QualifiedName(), op.Mediator, np.Mediator)
		case op.Type != np.Type || op.Direction != np.Direction:
			return nil, fmt.Errorf("%w: port %s changes shape (%s %s -> %s %s)",
				ErrIllegalDelta, op.QualifiedName(), op.Direction, op.Type, np.Direction, np.Type)
		case op.Buffer != np.Buffer || op.Threadpool != np.Threadpool ||
			op.Min != np.Min || op.Max != np.Max || op.HasAttrs != np.HasAttrs:
			if !topLevel {
				if err := taint(inst); err != nil {
					return nil, err
				}
				continue
			}
			return nil, fmt.Errorf("%w: port %s changes live attributes (buffer/threadpool)",
				ErrIllegalDelta, op.QualifiedName())
		case !sameStrings(op.Dests, np.Dests):
			if !topLevel {
				if err := taint(inst); err != nil {
					return nil, err
				}
				continue
			}
			step := DeltaStep{Op: OpRewire, Mediator: np.Mediator, Port: np.QualifiedName(), Dests: np.Dests}
			if coversAll(np.Dests, op.Dests) {
				addRewires = append(addRewires, step)
			} else {
				cutRewires = append(cutRewires, step)
			}
		}
	}

	// Assemble the script: swaps in plan order (parents before children is
	// irrelevant here — swap roots are all depth 1 — but plan order keeps the
	// script deterministic), then make-before-break rewires.
	d := &Delta{Old: oldPlan, New: newPlan}
	for _, name := range newPlan.Order {
		if parent, ok := swapRoot[name]; ok {
			d.Steps = append(d.Steps, DeltaStep{Op: OpSwapChild, Parent: parent, Child: name})
		}
	}
	d.Steps = append(d.Steps, addRewires...)
	d.Steps = append(d.Steps, cutRewires...)
	return d, nil
}

// ChildDefFor builds the core.ChildDef a live SMM.Swap installs for the
// named child instance: the blueprint from the (new) plan, wired by the
// same populate pass Assemble uses, against the running app's component
// tree.
func ChildDefFor(plan *Plan, reg *Registry, app *core.App, child string) (core.ChildDef, error) {
	ip := plan.Instances[child]
	if ip == nil {
		return core.ChildDef{}, fmt.Errorf("%w: no instance %q in plan", ErrCompile, child)
	}
	if ip.Parent == "" {
		return core.ChildDef{}, fmt.Errorf("%w: %q is top-level; only child subtrees swap live", ErrIllegalDelta, child)
	}
	// The same up-front checks Assemble runs, scoped to the subtree, so a
	// swap fails before the live assembly is touched.
	if err := reg.check(plan, child); err != nil {
		return core.ChildDef{}, err
	}
	asm := &assembler{plan: plan, reg: reg, app: app}
	return asm.childDef(child), nil
}

// diffRTSJ rejects memory-architecture changes: immortal size and scoped
// pools are fixed at process start.
func diffRTSJ(o, n *Plan) error {
	if o.RTSJ.ImmortalSize != n.RTSJ.ImmortalSize {
		return fmt.Errorf("%w: immortal size %d -> %d", ErrIllegalDelta, o.RTSJ.ImmortalSize, n.RTSJ.ImmortalSize)
	}
	if len(o.RTSJ.ScopedPools) != len(n.RTSJ.ScopedPools) {
		return fmt.Errorf("%w: scoped pool set changed", ErrIllegalDelta)
	}
	for i, sp := range o.RTSJ.ScopedPools {
		if sp != n.RTSJ.ScopedPools[i] {
			return fmt.Errorf("%w: scoped pool level %d changed", ErrIllegalDelta, sp.Level)
		}
	}
	return nil
}

// diffTree rejects instance additions, removals, and re-parenting.
func diffTree(o, n *Plan) error {
	for _, name := range o.Order {
		ni := n.Instances[name]
		if ni == nil {
			return fmt.Errorf("%w: instance %q removed; component sets are fixed (swap a subtree to a null version instead)",
				ErrIllegalDelta, name)
		}
		oi := o.Instances[name]
		if oi.Parent != ni.Parent {
			return fmt.Errorf("%w: instance %q re-parented %q -> %q", ErrIllegalDelta, name, oi.Parent, ni.Parent)
		}
	}
	for _, name := range n.Order {
		if o.Instances[name] == nil {
			return fmt.Errorf("%w: instance %q added; component sets are fixed", ErrIllegalDelta, name)
		}
	}
	return nil
}

// diffPlacement rejects node and replica changes — those roll through
// ClusterDeployment.RollingUpgrade, not a live in-process delta.
func diffPlacement(o, n *Plan) error {
	if len(o.Nodes) != len(n.Nodes) {
		return fmt.Errorf("%w: node set changed", ErrIllegalDelta)
	}
	for i, op := range o.Nodes {
		np := n.Nodes[i]
		if op.Node != np.Node || op.Replicas != np.Replicas || !sameStrings(op.Instances, np.Instances) {
			return fmt.Errorf("%w: placement of node %q changed", ErrIllegalDelta, op.Node)
		}
	}
	return nil
}

// diffDistribution rejects export and remote-link changes: they would
// re-wire live ORB endpoints.
func diffDistribution(o, n *Plan) error {
	if len(o.Exports) != len(n.Exports) {
		return fmt.Errorf("%w: export set changed", ErrIllegalDelta)
	}
	for i, oe := range o.Exports {
		if oe != n.Exports[i] {
			return fmt.Errorf("%w: export %s.%s changed", ErrIllegalDelta, oe.Instance, oe.Port)
		}
	}
	if len(o.RemoteConnections) != len(n.RemoteConnections) {
		return fmt.Errorf("%w: remote link set changed", ErrIllegalDelta)
	}
	for i, oc := range o.RemoteConnections {
		nc := n.RemoteConnections[i]
		if oc.FromInstance != nc.FromInstance || oc.FromPort != nc.FromPort ||
			oc.Addr != nc.Addr || oc.Dest != nc.Dest || oc.MessageType != nc.MessageType {
			return fmt.Errorf("%w: remote link %s.%s changed", ErrIllegalDelta, oc.FromInstance, oc.FromPort)
		}
	}
	return nil
}

// portName keys a port plan across two plans.
type portName struct{ inst, port string }

// portPlanNames returns the union of both plans' port-plan names, sorted.
func portPlanNames(o, n *Plan) []portName {
	set := make(map[portName]bool)
	collect := func(p *Plan) {
		for _, name := range p.Order {
			for _, pp := range p.Instances[name].Ports {
				set[portName{pp.Instance, pp.Port}] = true
			}
		}
	}
	collect(o)
	collect(n)
	names := make([]portName, 0, len(set))
	for k := range set {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		if names[i].inst != names[j].inst {
			return names[i].inst < names[j].inst
		}
		return names[i].port < names[j].port
	})
	return names
}

// portPlanByName finds a plan's port plan, or nil.
func portPlanByName(p *Plan, k portName) *PortPlan {
	ip := p.Instances[k.inst]
	if ip == nil {
		return nil
	}
	for _, pp := range ip.Ports {
		if pp.Port == k.port {
			return pp
		}
	}
	return nil
}

// sameStrings compares two string slices element-wise.
func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// coversAll reports whether every element of need appears in have — the
// additive-rewire test (nothing currently routed is cut).
func coversAll(have, need []string) bool {
	set := make(map[string]bool, len(have))
	for _, h := range have {
		set[h] = true
	}
	for _, x := range need {
		if !set[x] {
			return false
		}
	}
	return true
}
