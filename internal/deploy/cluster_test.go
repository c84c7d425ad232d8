package deploy

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/remote"
	"repro/internal/sched"
	"repro/internal/transport"
)

// replicatedApp places the sink on a 3-replica backend node.
const replicatedApp = `
<Application>
  <ApplicationName>SinkCluster</ApplicationName>
  <Component>
    <InstanceName>Collector</InstanceName>
    <ClassName>Sink</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Node>backend</Node>
    <Replicas>3</Replicas>
    <Connection>
      <Port>
        <PortName>in</PortName>
        <Exported>true</Exported>
      </Port>
    </Connection>
  </Component>
</Application>`

// killReplica takes one replica of the node down: membership first (so
// clients resolving mid-kill see only survivors), then the process.
func killReplica(d *ClusterDeployment, node string, index int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range d.replicas {
		if r.Node != node || r.Index != index || r.Dep == nil {
			continue
		}
		for _, g := range r.groups {
			d.Directory.Remove(g, r.Dep.Addr())
		}
		r.Dep.Close()
		r.Dep = nil
		return nil
	}
	return fmt.Errorf("%w: node %q has no live replica %d", ErrDeploy, node, index)
}

// sinkRegistry binds the Sink class, counting deliveries.
func sinkRegistry(t *testing.T, delivered *atomic.Int64) *compiler.Registry {
	t.Helper()
	return sinkRegistryPer(t, func(*core.Component) *atomic.Int64 { return delivered })
}

// sinkRegistryPer binds the Sink class, each instance counting its
// deliveries into the counter counter hands it.
func sinkRegistryPer(t *testing.T, counter func(*core.Component) *atomic.Int64) *compiler.Registry {
	t.Helper()
	reg := compiler.NewRegistry()
	if err := reg.RegisterType(sampleType); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterClass("Sink", compiler.ClassBinding{
		NewHandlers: func(c *core.Component) (map[string]core.Handler, error) {
			delivered := counter(c)
			return map[string]core.Handler{
				"in": core.HandlerFunc(func(p *core.Proc, m core.Message) error {
					delivered.Add(1)
					return nil
				}),
			}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestRunClusterReplicatedSinks(t *testing.T) {
	net := transport.NewInproc()
	plan := compilePlan(t, serverDefs, replicatedApp)
	// Each replica's sink counts what it was delivered.
	var (
		mu      sync.Mutex
		perSink []*atomic.Int64
	)
	delivered := func() (sum int64) {
		mu.Lock()
		defer mu.Unlock()
		for _, n := range perSink {
			sum += n.Load()
		}
		return sum
	}
	reg := sinkRegistryPer(t, func(*core.Component) *atomic.Int64 {
		mu.Lock()
		defer mu.Unlock()
		perSink = append(perSink, new(atomic.Int64))
		return perSink[len(perSink)-1]
	})

	cd, err := RunCluster(plan, reg, ClusterConfig{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()

	group := remote.PortKey("Collector.in")
	if reps := cd.Replicas("backend"); len(reps) != 3 {
		t.Fatalf("backend replicas = %d, want 3", len(reps))
	}
	if members := cd.Directory.Members(group); len(members) != 3 {
		t.Fatalf("directory members = %v, want 3", members)
	}

	// A cluster client resolves the group through the directory and spreads
	// "send" invocations (the remote-port wire op) across the replicas.
	c, err := cluster.Dial(cluster.ClientConfig{
		Network: net, Directory: cd.DirectoryAddr(), Group: group,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	wire, err := (&sample{v: 7}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := c.Invoke(group, "send", wire, sched.NormPriority); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for delivered() < 60 {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/60", delivered())
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(perSink) != 3 {
		t.Fatalf("%d sinks instantiated, want one per replica", len(perSink))
	}
	for i, n := range perSink {
		if n.Load() == 0 {
			t.Errorf("replica sink %d received no traffic", i)
		}
	}
}

func TestRunClusterKillAndReaddReplica(t *testing.T) {
	net := transport.NewInproc()
	plan := compilePlan(t, serverDefs, replicatedApp)
	var delivered atomic.Int64

	cd, err := RunCluster(plan, sinkRegistry(t, &delivered), ClusterConfig{
		Network: net,
		NodeAddr: func(node string, i int) string {
			return node + "-" + string(rune('0'+i))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()

	group := remote.PortKey("Collector.in")
	if err := killReplica(cd, "backend", 1); err != nil {
		t.Fatal(err)
	}
	if members := cd.Directory.Members(group); len(members) != 2 {
		t.Errorf("post-kill members = %v, want 2", members)
	}
	if err := killReplica(cd, "backend", 1); err == nil {
		t.Error("double kill succeeded")
	}

	r, err := cd.StartReplica("backend")
	if err != nil {
		t.Fatal(err)
	}
	if r.Index != 3 || r.Addr() != "backend-3" {
		t.Errorf("re-added replica = %+v (addr %q), want fresh index 3", r, r.Addr())
	}
	if members := cd.Directory.Members(group); len(members) != 3 {
		t.Errorf("post-readd members = %v, want 3", members)
	}

	// The re-added member answers invocations directly.
	c, err := cluster.Dial(cluster.ClientConfig{
		Network: net, Directory: cd.DirectoryAddr(), Group: group,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wire, _ := (&sample{v: 1}).MarshalBinary()
	if _, err := c.Invoke(group, "send", wire, sched.NormPriority); err != nil {
		t.Fatal(err)
	}
}

func TestRunClusterValidation(t *testing.T) {
	plan := compilePlan(t, serverDefs, replicatedApp)
	var delivered atomic.Int64
	if _, err := RunCluster(plan, sinkRegistry(t, &delivered), ClusterConfig{}); !errors.Is(err, ErrDeploy) {
		t.Errorf("no-network err = %v", err)
	}

	net := transport.NewInproc()
	cd, err := RunCluster(plan, sinkRegistry(t, &delivered), ClusterConfig{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	cd.Close()
	cd.Close() // idempotent
	if _, err := cd.StartReplica("backend"); err == nil {
		t.Error("start on closed cluster succeeded")
	}
	if _, err := cd.StartReplica("nowhere"); err == nil {
		t.Error("start on unknown node succeeded")
	}
}

// mixedDefs declares both the exported sink and a source whose message type
// the teardown test deliberately leaves unregistered.
const mixedDefs = `
<ComponentDefinitions>
  <Component>
    <ComponentName>Sink</ComponentName>
    <Port><PortName>in</PortName><PortType>In</PortType><MessageType>Sample</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Source</ComponentName>
    <Port><PortName>out</PortName><PortType>Out</PortType><MessageType>Other</MessageType></Port>
  </Component>
</ComponentDefinitions>`

const mixedApp = `
<Application>
  <ApplicationName>Mixed</ApplicationName>
  <Component>
    <InstanceName>Collector</InstanceName>
    <ClassName>Sink</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port><PortName>in</PortName><Exported>true</Exported></Port>
    </Connection>
  </Component>
  <Component>
    <InstanceName>Emitter</InstanceName>
    <ClassName>Source</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port>
        <PortName>out</PortName>
        <Link>
          <PortType>Remote</PortType>
          <ToComponent>Elsewhere</ToComponent>
          <ToPort>in</ToPort>
          <RemoteAddr>elsewhere</RemoteAddr>
        </Link>
      </Port>
    </Connection>
  </Component>
</Application>`

// plain is registered for the "Other" wire type but implements no binary
// marshalling, so building the remote link's proxy fails — after the export
// server is already listening.
type plain struct{ v int64 }

func (m *plain) Reset() { m.v = 0 }

var plainType = core.MessageType{Name: "Other", Size: 32, New: func() core.Message { return &plain{} }}

// TestRunTeardownOnMidAssemblyFailure drives Run into a failure after the
// export server is already listening (the remote link's message type is not
// serializable) and verifies the partial deployment is fully unwound: the
// listener is gone and no goroutines leak.
func TestRunTeardownOnMidAssemblyFailure(t *testing.T) {
	net := transport.NewInproc()
	reg := compiler.NewRegistry()
	if err := reg.RegisterType(sampleType); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterType(plainType); err != nil {
		t.Fatal(err)
	}
	_ = reg.RegisterClass("Sink", compiler.ClassBinding{
		NewHandlers: func(c *core.Component) (map[string]core.Handler, error) {
			return map[string]core.Handler{
				"in": core.HandlerFunc(func(p *core.Proc, m core.Message) error { return nil }),
			}, nil
		},
	})
	_ = reg.RegisterClass("Source", compiler.ClassBinding{})
	plan := compilePlan(t, mixedDefs, mixedApp)

	baseline := runtime.NumGoroutine()
	if _, err := Run(plan, reg, Config{Network: net, ListenAddr: "mixed"}); !errors.Is(err, ErrDeploy) {
		t.Fatalf("err = %v, want ErrDeploy (unserializable remote type)", err)
	}

	// The failed Run closed its server: the address must be dialable no
	// more, and the reader/acceptor goroutines must drain.
	if _, err := net.Dial("mixed"); err == nil {
		t.Error("listener survived the failed deployment")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d, baseline %d: teardown leaked", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeploymentCloseIdempotentUnderFaultNetwork closes a deployment (twice)
// over a network that refuses every dial: teardown must not depend on being
// able to reach anyone.
func TestDeploymentCloseIdempotentUnderFaultNetwork(t *testing.T) {
	inner := transport.NewInproc()
	net := fault.New(inner, fault.Config{Seed: 1, DialFailProb: 1})

	reg := compiler.NewRegistry()
	if err := reg.RegisterType(sampleType); err != nil {
		t.Fatal(err)
	}
	_ = reg.RegisterClass("Source", compiler.ClassBinding{})
	plan := compilePlan(t, clientDefs, clientApp)

	// ORB clients dial lazily, so Run succeeds even though every dial is
	// doomed; Close must unwind cleanly regardless.
	dep, err := Run(plan, reg, Config{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	dep.Close()
	dep.Close() // idempotent: second close is a no-op
}
