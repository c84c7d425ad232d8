package deploy

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/remote"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// reconfDefs declares a hub plus two worker versions, so Apply has both a
// swap (class change) and a rewire (destination change) to install.
const reconfDefs = `
<ComponentDefinitions>
  <Component>
    <ComponentName>RHub</ComponentName>
    <Port><PortName>feedA</PortName><PortType>Out</PortType><MessageType>Sample</MessageType></Port>
    <Port><PortName>feedB</PortName><PortType>Out</PortType><MessageType>Sample</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>RWorkerV1</ComponentName>
    <Port><PortName>in</PortName><PortType>In</PortType><MessageType>Sample</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>RWorkerV2</ComponentName>
    <Port><PortName>in</PortName><PortType>In</PortType><MessageType>Sample</MessageType></Port>
  </Component>
</ComponentDefinitions>`

// reconfApp parameterises worker W's class and feedA's destination.
func reconfApp(workerClass, feedADest string) string {
	return fmt.Sprintf(`
<Application>
  <ApplicationName>Reconf</ApplicationName>
  <Component>
    <InstanceName>H</InstanceName>
    <ClassName>RHub</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port>
        <PortName>feedA</PortName>
        <Link><PortType>Internal</PortType><ToComponent>%s</ToComponent><ToPort>in</ToPort></Link>
      </Port>
      <Port>
        <PortName>feedB</PortName>
        <Link><PortType>Internal</PortType><ToComponent>X</ToComponent><ToPort>in</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>W</InstanceName>
      <ClassName>%s</ClassName>
      <ComponentType>Scoped</ComponentType>
      <MemorySize>16384</MemorySize>
    </Component>
    <Component>
      <InstanceName>X</InstanceName>
      <ClassName>RWorkerV1</ClassName>
      <ComponentType>Scoped</ComponentType>
      <MemorySize>16384</MemorySize>
    </Component>
  </Component>
</Application>`, feedADest, workerClass)
}

// reconfCounts tracks deliveries per (instance, class version).
type reconfCounts struct {
	wV1, wV2, x atomic.Int64
}

func (rc *reconfCounts) total() int64 { return rc.wV1.Load() + rc.wV2.Load() + rc.x.Load() }

// reconfRegistry binds both worker versions, counting which code served.
func reconfRegistry(t *testing.T, counts *reconfCounts) *compiler.Registry {
	t.Helper()
	reg := compiler.NewRegistry()
	if err := reg.RegisterType(sampleType); err != nil {
		t.Fatal(err)
	}
	worker := func(hit func(name string)) compiler.ClassBinding {
		return compiler.ClassBinding{
			NewHandlers: func(c *core.Component) (map[string]core.Handler, error) {
				name := c.Name()
				return map[string]core.Handler{
					"in": core.HandlerFunc(func(p *core.Proc, m core.Message) error {
						hit(name)
						return nil
					}),
				}, nil
			},
		}
	}
	if err := reg.RegisterClass("RHub", compiler.ClassBinding{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterClass("RWorkerV1", worker(func(name string) {
		if name == "W" {
			counts.wV1.Add(1)
		} else {
			counts.x.Add(1)
		}
	})); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterClass("RWorkerV2", worker(func(string) {
		counts.wV2.Add(1)
	})); err != nil {
		t.Fatal(err)
	}
	return reg
}

// applySend rides out transient pool exhaustion while swaps briefly hold
// messages in flight.
func applySend(t *testing.T, out *core.OutPort) {
	t.Helper()
	for {
		msg, err := out.GetMessage()
		if errors.Is(err, core.ErrPoolEmpty) {
			time.Sleep(20 * time.Microsecond)
			continue
		}
		if err != nil {
			t.Fatalf("get message: %v", err)
		}
		msg.(*sample).v = 1
		err = out.Send(msg, sched.NormPriority)
		if errors.Is(err, core.ErrBufferFull) {
			// The workers lag the sender; back off and re-acquire (the
			// rejected message went back to the pool).
			time.Sleep(50 * time.Microsecond)
			continue
		}
		if err != nil {
			t.Fatalf("send: %v", err)
		}
		return
	}
}

// TestApplySwapThenRewireUnderTraffic installs a class swap and then a
// destination rewire into a live deployment while a sender keeps the hub's
// ports busy; every message sent must land on exactly one handler.
func TestApplySwapThenRewireUnderTraffic(t *testing.T) {
	planA := compilePlan(t, reconfDefs, reconfApp("RWorkerV1", "W"))
	planB := compilePlan(t, reconfDefs, reconfApp("RWorkerV2", "W"))
	planC := compilePlan(t, reconfDefs, reconfApp("RWorkerV2", "X"))

	var counts reconfCounts
	reg := reconfRegistry(t, &counts)
	dep, err := Run(planA, reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	out, err := dep.App.Component("H").SMM().GetOutPort("H.feedA")
	if err != nil {
		t.Fatal(err)
	}
	var sent int64
	send := func(n int) {
		for i := 0; i < n; i++ {
			applySend(t, out)
			sent++
		}
	}

	send(50)
	if counts.wV1.Load() == 0 {
		deadline := time.Now().Add(2 * time.Second)
		for counts.wV1.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	// Swap W to the V2 class, keeping traffic flowing right up to the call.
	delta, err := compiler.Diff(planA, planB)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dep.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	if st.Swaps != 1 || st.Rewires != 0 {
		t.Fatalf("stats = %+v, want one swap", st)
	}
	if st.MaxPauseNs <= 0 {
		t.Errorf("swap pause = %d, want > 0", st.MaxPauseNs)
	}
	send(50)

	// Rewire feedA from W to X. The deployment revalidates the delta against
	// what it actually runs, so diffing from the stale planA is fine too —
	// but diff from planB to keep the script to one step.
	delta2, err := compiler.Diff(planB, planC)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := dep.Apply(delta2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Rewires != 1 || st2.Swaps != 0 {
		t.Fatalf("stats = %+v, want one rewire", st2)
	}
	send(50)

	// Every send landed exactly once: no drops across swap and rewire.
	deadline := time.Now().Add(5 * time.Second)
	for counts.total() < sent {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d (v1=%d v2=%d x=%d): messages dropped",
				counts.total(), sent, counts.wV1.Load(), counts.wV2.Load(), counts.x.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if got := counts.total(); got != sent {
		t.Fatalf("delivered %d, sent %d", got, sent)
	}
	if counts.wV2.Load() == 0 {
		t.Error("swapped-in V2 never served")
	}
	if counts.x.Load() < 50 {
		t.Errorf("post-rewire X deliveries = %d, want >= 50", counts.x.Load())
	}
	if n, errs := dep.App.Errors(); n != 0 {
		t.Errorf("app errors: %d (%v)", n, errs)
	}
}

// TestApplyStaleDeltaRevalidates diffs against a plan the process never ran
// and confirms Apply re-diffs from its live plan instead of trusting it.
func TestApplyStaleDeltaRevalidates(t *testing.T) {
	planA := compilePlan(t, reconfDefs, reconfApp("RWorkerV1", "W"))
	planB := compilePlan(t, reconfDefs, reconfApp("RWorkerV2", "W"))

	var counts reconfCounts
	dep, err := Run(planA, reconfRegistry(t, &counts), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	// A delta whose Old is a *different compile* of the same document: Apply
	// must revalidate (and still find the single swap).
	stale := compilePlan(t, reconfDefs, reconfApp("RWorkerV1", "W"))
	delta, err := compiler.Diff(stale, planB)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dep.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	if st.Swaps != 1 {
		t.Fatalf("stats = %+v", st)
	}

	if _, err := dep.Apply(nil); !errors.Is(err, ErrDeploy) {
		t.Errorf("nil delta err = %v", err)
	}
}

// TestRollingUpgradeThreeReplicasZeroErrors upgrades a 3-replica group under
// continuous client traffic: no invocation may surface an error, no breaker
// may trip, and the new version must end up serving everywhere.
func TestRollingUpgradeThreeReplicasZeroErrors(t *testing.T) {
	net := transport.NewInproc()
	planA := compilePlan(t, serverDefs, replicatedApp)
	var v1, v2 atomic.Int64

	cd, err := RunCluster(planA, sinkRegistry(t, &v1), ClusterConfig{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()

	group := remote.PortKey("Collector.in")
	tripsBefore := telemetry.NewCounter("breaker_open_total").Value()

	c, err := cluster.Dial(cluster.ClientConfig{
		Network: net, Directory: cd.DirectoryAddr(), Group: group,
		RefreshInterval: 2 * time.Millisecond,
		Resilience:      &orb.ResilienceConfig{MaxRetries: 8, BreakerThreshold: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	wire, err := (&sample{v: 7}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	var sent atomic.Int64
	var invokeErr atomic.Pointer[error]
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Invoke(group, "send", wire, sched.NormPriority); err != nil {
				invokeErr.CompareAndSwap(nil, &err)
				return
			}
			sent.Add(1)
		}
	}()

	// Let traffic establish, then roll the whole group to the new version.
	time.Sleep(20 * time.Millisecond)
	planB := compilePlan(t, serverDefs, replicatedApp)
	rep, err := cd.RollingUpgrade("backend", planB, sinkRegistry(t, &v2), UpgradeOptions{
		SettleDelay: 25 * time.Millisecond, DrainTimeout: 2 * time.Second,
	})
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}

	if ep := invokeErr.Load(); ep != nil {
		t.Fatalf("client surfaced an error during the upgrade: %v", *ep)
	}
	if trips := telemetry.NewCounter("breaker_open_total").Value() - tripsBefore; trips != 0 {
		t.Errorf("breaker tripped %d times during the rolling upgrade", trips)
	}
	if len(rep.Members) != 3 {
		t.Fatalf("members upgraded = %d, want 3 (%+v)", len(rep.Members), rep.Members)
	}
	for _, m := range rep.Members {
		if !m.Drained {
			t.Errorf("member %d closed with requests still in flight", m.OldIndex)
		}
		if m.PauseNs <= 0 {
			t.Errorf("member %d pause = %d", m.OldIndex, m.PauseNs)
		}
	}
	if reps := cd.Replicas("backend"); len(reps) != 3 {
		t.Errorf("post-upgrade replicas = %d, want 3", len(reps))
	}
	if members := cd.Directory.Members(group); len(members) != 3 {
		t.Errorf("post-upgrade directory members = %v, want 3", members)
	}
	if v2.Load() == 0 {
		t.Error("new version never served a request")
	}

	// Acknowledged invocations: everything the client counted as sent must
	// have been delivered by one version or the other.
	deadline := time.Now().Add(5 * time.Second)
	for v1.Load()+v2.Load() < sent.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d+%d < sent %d: messages dropped",
				v1.Load(), v2.Load(), sent.Load())
		}
		time.Sleep(time.Millisecond)
	}

	// Future replicas build the new version too.
	r, err := cd.StartReplica("backend")
	if err != nil {
		t.Fatal(err)
	}
	if err := killReplica(cd, "backend", r.Index); err != nil {
		t.Fatal(err)
	}
}

// TestRollingUpgradeValidation covers the refusal paths.
func TestRollingUpgradeValidation(t *testing.T) {
	net := transport.NewInproc()
	plan := compilePlan(t, serverDefs, replicatedApp)
	var v1 atomic.Int64
	cd, err := RunCluster(plan, sinkRegistry(t, &v1), ClusterConfig{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()

	if _, err := cd.RollingUpgrade("backend", nil, nil, UpgradeOptions{}); !errors.Is(err, ErrDeploy) {
		t.Errorf("nil plan err = %v", err)
	}
	var v2 atomic.Int64
	if _, err := cd.RollingUpgrade("nowhere", plan, sinkRegistry(t, &v2), UpgradeOptions{}); err == nil {
		t.Error("unknown node accepted")
	}
}

// TestChaosRollingUpgradeSoak rolls the group version back and forth under
// sustained traffic — the deployment-layer half of the hot-swap soak.
func TestChaosRollingUpgradeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	net := transport.NewInproc()
	planA := compilePlan(t, serverDefs, replicatedApp)
	var vA, vB atomic.Int64

	cd, err := RunCluster(planA, sinkRegistry(t, &vA), ClusterConfig{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()

	group := remote.PortKey("Collector.in")
	c, err := cluster.Dial(cluster.ClientConfig{
		Network: net, Directory: cd.DirectoryAddr(), Group: group,
		RefreshInterval: 2 * time.Millisecond,
		Resilience:      &orb.ResilienceConfig{MaxRetries: 8, BreakerThreshold: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	wire, _ := (&sample{v: 1}).MarshalBinary()
	stop := make(chan struct{})
	done := make(chan struct{})
	var sent atomic.Int64
	var invokeErr atomic.Pointer[error]
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Invoke(group, "send", wire, sched.NormPriority); err != nil {
				invokeErr.CompareAndSwap(nil, &err)
				return
			}
			sent.Add(1)
		}
	}()

	planB := compilePlan(t, serverDefs, replicatedApp)
	regs := []*compiler.Registry{sinkRegistry(t, &vB), sinkRegistry(t, &vA)}
	plans := []*compiler.Plan{planB, planA}
	// The settle must outlast the refresher's retarget latency even under
	// the race detector's ~10x slowdown, or stragglers hit a closing member.
	for round := 0; round < 3; round++ {
		if _, err := cd.RollingUpgrade("backend", plans[round%2], regs[round%2], UpgradeOptions{
			SettleDelay: 40 * time.Millisecond, DrainTimeout: 2 * time.Second,
		}); err != nil {
			close(stop)
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(stop)
	<-done

	if ep := invokeErr.Load(); ep != nil {
		t.Fatalf("client surfaced an error during the soak: %v", *ep)
	}
	deadline := time.Now().Add(5 * time.Second)
	for vA.Load()+vB.Load() < sent.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d+%d < sent %d", vA.Load(), vB.Load(), sent.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if vB.Load() == 0 {
		t.Error("upgraded version never served")
	}
}
