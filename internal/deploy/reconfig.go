// Live reconfiguration at the deployment layer: Apply installs a compiled
// plan delta into a running process (child-subtree swaps and port rewires,
// ordered by the compiler's script), and RollingUpgrade replaces a
// replicated node's processes one member at a time behind the directory —
// surge the new version in, retire the old one through a servant drain, and
// never leave the group without live members.

package deploy

import (
	"fmt"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// ApplyStats reports what an Apply did.
type ApplyStats struct {
	// Swaps and Rewires count the committed steps.
	Swaps, Rewires int
	// MaxPauseNs is the longest single swap pause.
	MaxPauseNs int64
}

// Apply installs a plan delta into the running process: every step commits
// through the core lifecycle API (SMM.Swap / SMM.Rewire), so in-flight
// messages drain against the old versions and no message is dropped. Steps
// apply in the delta's order; a failing step stops the script and reports
// how far it got (each committed step remains committed — steps are
// individually atomic). On success the deployment tracks the new plan.
func (d *Deployment) Apply(delta *compiler.Delta) (ApplyStats, error) {
	var st ApplyStats
	if delta == nil || delta.New == nil {
		return st, fmt.Errorf("%w: nil delta", ErrDeploy)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// Revalidate against what this process actually runs: the caller may
	// have diffed a stale plan.
	if delta.Old != d.plan {
		var err error
		delta, err = compiler.Diff(d.plan, delta.New)
		if err != nil {
			return st, err
		}
	}
	for _, step := range delta.Steps {
		switch step.Op {
		case compiler.OpSwapChild:
			parent := d.App.Component(step.Parent)
			if parent == nil {
				return st, fmt.Errorf("%w: apply: no live component %q", ErrDeploy, step.Parent)
			}
			def, err := compiler.ChildDefFor(delta.New, d.reg, d.App, step.Child)
			if err != nil {
				return st, fmt.Errorf("apply swap %q: %w", step.Child, err)
			}
			sw, err := parent.SMM().Swap(def, core.SwapOptions{})
			if err != nil {
				return st, fmt.Errorf("apply swap %q: %w", step.Child, err)
			}
			st.Swaps++
			if sw.PauseNs > st.MaxPauseNs {
				st.MaxPauseNs = sw.PauseNs
			}
		case compiler.OpRewire:
			med := d.App.Component(step.Mediator)
			if med == nil {
				return st, fmt.Errorf("%w: apply: no live component %q", ErrDeploy, step.Mediator)
			}
			if err := med.SMM().Rewire(step.Port, step.Dests); err != nil {
				return st, fmt.Errorf("apply rewire %q: %w", step.Port, err)
			}
			st.Rewires++
		default:
			return st, fmt.Errorf("%w: apply: unknown delta op %v", ErrDeploy, step.Op)
		}
	}
	d.plan = delta.New
	return st, nil
}

// UpgradeOptions tunes ClusterDeployment.RollingUpgrade.
type UpgradeOptions struct {
	// SettleDelay is how long a removed member keeps serving before its
	// servants unregister — the window for clients to refresh membership
	// away from it. Zero selects 50ms.
	SettleDelay time.Duration
	// DrainTimeout bounds each member's servant drain (in-flight requests
	// completing after the settle). Zero selects one second.
	DrainTimeout time.Duration
}

// MemberUpgrade reports one member's replacement.
type MemberUpgrade struct {
	// Node names the upgraded node; OldIndex/NewIndex the retired and
	// surged replica ordinals.
	Node               string
	OldIndex, NewIndex int
	// PauseNs is the member's retirement pause: directory removal through
	// drained shutdown (the settle window included).
	PauseNs int64
	// Drained is false when in-flight requests were still running at the
	// drain bound (the member closes anyway).
	Drained bool
}

// UpgradeReport is a RollingUpgrade's outcome.
type UpgradeReport struct {
	Node    string
	Members []MemberUpgrade
}

// RollingUpgrade replaces every live replica of the node with a process
// built from the new plan and registry, one member at a time, surge-first:
//
//  1. start a new-version replica and join it to the directory;
//  2. remove the old member from the directory — clients re-resolving or
//     refreshing retarget to the survivors plus the new member;
//  3. settle, then unregister the old member's servants: stragglers racing
//     the removal get retry-after shed replies and re-route, not errors;
//  4. drain the old member's in-flight requests, bounded, and close it.
//
// The group therefore always has at least its original member count minus
// zero — capacity never dips below N — and a client that never misbehaves
// sees zero surfaced errors and zero breaker trips. Future StartReplica
// calls build the new version.
func (d *ClusterDeployment) RollingUpgrade(node string, newPlan *compiler.Plan, newReg *compiler.Registry, opts UpgradeOptions) (*UpgradeReport, error) {
	if newPlan == nil || newReg == nil {
		return nil, fmt.Errorf("%w: rolling upgrade needs a plan and a registry", ErrDeploy)
	}
	if _, err := newPlan.SubPlan(node); err != nil {
		return nil, err
	}
	settle := opts.SettleDelay
	if settle == 0 {
		settle = 50 * time.Millisecond
	}
	drain := opts.DrainTimeout
	if drain == 0 {
		drain = time.Second
	}

	old := d.Replicas(node)
	if len(old) == 0 {
		return nil, fmt.Errorf("%w: node %q has no live replicas to upgrade", ErrDeploy, node)
	}
	report := &UpgradeReport{Node: node}
	for _, r := range old {
		nr, err := d.startReplicaFrom(node, newPlan, newReg)
		if err != nil {
			return report, fmt.Errorf("%w: surge for node %q: %v", ErrDeploy, node, err)
		}
		m := MemberUpgrade{Node: node, OldIndex: r.Index, NewIndex: nr.Index}
		start := telemetry.Now()

		// Membership first: new resolutions and refreshes stop naming the
		// old member while it still serves everything already in flight.
		d.mu.Lock()
		addr := ""
		if r.Dep != nil {
			addr = r.Dep.Addr()
			for _, g := range r.groups {
				d.Directory.Remove(g, addr)
			}
		}
		d.mu.Unlock()
		time.Sleep(settle)

		if r.Dep != nil {
			// Retire the servants: a straggler that raced the directory
			// update sheds with a retry-after hint and re-routes through the
			// directory instead of surfacing an error.
			for _, g := range r.groups {
				r.Dep.Server.UnregisterServant(g)
			}
			m.Drained = r.Dep.Server.Drain(drain) == nil
			d.mu.Lock()
			r.Dep.Close()
			r.Dep = nil
			d.mu.Unlock()
		}
		m.PauseNs = telemetry.Now() - start
		report.Members = append(report.Members, m)
	}

	// The node now runs the new version everywhere; future replicas follow.
	d.mu.Lock()
	d.plan, d.reg = newPlan, newReg
	d.mu.Unlock()
	return report, nil
}

// startReplicaFrom is StartReplica against an explicit plan/registry — the
// surge half of a rolling upgrade.
func (d *ClusterDeployment) startReplicaFrom(node string, plan *compiler.Plan, reg *compiler.Registry) (*Replica, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.startReplicaLocked(node, plan, reg)
}
