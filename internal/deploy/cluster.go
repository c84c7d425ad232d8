// Replicated deployment: a compiled plan whose placement declares <Node> and
// <Replicas> runs as a *cluster* — each node's sub-plan as N independent
// processes plus one directory endpoint publishing the replica groups. The
// directory is the rendezvous: clients (internal/cluster.Dial) probe it with
// Locate and are forwarded to the live members, so killing and re-adding a
// replica is a directory edit, not a client reconfiguration.

package deploy

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/orb"
	"repro/internal/remote"
	"repro/internal/transport"
)

// ClusterConfig parameterises RunCluster.
type ClusterConfig struct {
	// Network carries the inter-process traffic. Required.
	Network transport.Network
	// DirectoryAddr is where the directory endpoint listens (for TCP,
	// ":0" picks an ephemeral port; inproc auto-assigns on "").
	DirectoryAddr string
	// NodeAddr names the listen address of one replica process; nil lets
	// the network auto-assign (each replica must get a distinct address).
	NodeAddr func(node string, replica int) string
}

// Replica is one running process of a node's sub-plan.
type Replica struct {
	// Node is the placement node this process runs.
	Node string
	// Index is the replica ordinal, unique per node across the cluster's
	// lifetime (a re-added member gets a fresh index).
	Index int
	// Dep is the process itself; nil once it is taken down.
	Dep *Deployment

	groups []string // directory groups this replica's exports joined
}

// Addr returns the replica's exported-ports endpoint ("" once killed).
func (r *Replica) Addr() string {
	if r.Dep == nil {
		return ""
	}
	return r.Dep.Addr()
}

// ClusterDeployment is a running replicated deployment: the directory
// endpoint plus every replica process.
type ClusterDeployment struct {
	// Directory is the authoritative group membership; tests and operators
	// may edit it directly (Remove before a drain, Add after a join).
	Directory *cluster.Directory
	// DirServer serves the directory's Locate probes.
	DirServer *orb.Server

	plan *compiler.Plan
	reg  *compiler.Registry
	cfg  ClusterConfig

	mu       sync.Mutex
	replicas []*Replica
	next     map[string]int
	closed   bool
}

// RunCluster deploys the plan's placement: every node's sub-plan runs
// Replicas times, each process publishing its exports, and the directory
// endpoint maps each exported port's group (remote.PortKey of the qualified
// name) to the live replica addresses. Unreplicated nodes run once and are
// still registered — a singleton group resolves like any other.
func RunCluster(plan *compiler.Plan, reg *compiler.Registry, cfg ClusterConfig) (*ClusterDeployment, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("%w: cluster needs a network", ErrDeploy)
	}
	d := &ClusterDeployment{
		Directory: cluster.NewDirectory(),
		plan:      plan,
		reg:       reg,
		cfg:       cfg,
		next:      make(map[string]int),
	}
	srv, err := orb.NewServer(orb.ServerConfig{Network: cfg.Network, Addr: cfg.DirectoryAddr})
	if err != nil {
		return nil, fmt.Errorf("%w: directory listen: %v", ErrDeploy, err)
	}
	d.DirServer = srv
	d.Directory.Attach(srv)
	srv.ServeBackground()

	for _, np := range plan.Nodes {
		for i := 0; i < np.Replicas; i++ {
			if _, err := d.StartReplica(np.Node); err != nil {
				d.Close()
				return nil, err
			}
		}
	}
	return d, nil
}

// DirectoryAddr returns the directory endpoint's address — what cluster
// clients pass as ClientConfig.Directory.
func (d *ClusterDeployment) DirectoryAddr() string { return d.DirServer.Addr() }

// StartReplica runs one more process of the node's sub-plan and joins its
// exports to the directory — the re-add half of a rolling restart.
func (d *ClusterDeployment) StartReplica(node string) (*Replica, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.startReplicaLocked(node, d.plan, d.reg)
}

// startReplicaLocked starts one process of the node's sub-plan from an
// explicit plan/registry (RollingUpgrade surges the new version this way
// while d.plan still names the old one). Caller holds d.mu.
func (d *ClusterDeployment) startReplicaLocked(node string, plan *compiler.Plan, reg *compiler.Registry) (*Replica, error) {
	if d.closed {
		return nil, fmt.Errorf("%w: cluster closed", ErrDeploy)
	}
	sub, err := plan.SubPlan(node)
	if err != nil {
		return nil, err
	}
	idx := d.next[node]
	d.next[node] = idx + 1
	addr := ""
	if d.cfg.NodeAddr != nil {
		addr = d.cfg.NodeAddr(node, idx)
	}
	dep, err := Run(sub, reg, Config{Network: d.cfg.Network, ListenAddr: addr})
	if err != nil {
		return nil, fmt.Errorf("%w: node %q replica %d: %v", ErrDeploy, node, idx, err)
	}
	r := &Replica{Node: node, Index: idx, Dep: dep}
	for _, ex := range sub.Exports {
		g := remote.PortKey(ex.Instance + "." + ex.Port)
		r.groups = append(r.groups, g)
		d.Directory.Add(g, dep.Addr())
	}
	d.replicas = append(d.replicas, r)
	return r, nil
}

// Replicas returns the node's live replicas.
func (d *ClusterDeployment) Replicas(node string) []*Replica {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []*Replica
	for _, r := range d.replicas {
		if r.Node == node && r.Dep != nil {
			out = append(out, r)
		}
	}
	return out
}

// Close tears the whole cluster down: every live replica, then the
// directory. Idempotent.
func (d *ClusterDeployment) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	replicas := d.replicas
	d.mu.Unlock()
	for _, r := range replicas {
		if r.Dep != nil {
			r.Dep.Close()
			r.Dep = nil
		}
	}
	if d.DirServer != nil {
		d.DirServer.Close()
	}
}
