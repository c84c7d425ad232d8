package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ccl"
	"repro/internal/cdl"
	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/metrics"
	"repro/internal/orb"
	"repro/internal/remote"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// bench7Snapshot is the schema of BENCH_7.json: live reconfiguration.
// Two sections:
//
//   - swap: an in-process deployment hot-swaps one component version back
//     and forth while senders keep its In port busy. The pause distribution
//     is the reconfiguration cost; dropped MUST be 0 — a swap drains, it
//     never sheds.
//   - rolling: a 3-replica cluster group is upgraded one member at a time
//     behind the directory while a replica-aware client drives invocations.
//     errors and breaker_trips MUST be 0; the goodput windows around the
//     upgrade show the dip (bounded by the per-member settle+drain), and
//     new_served proves the new version took over.
//
// Durations are nanoseconds so the file diffs cleanly across runs.
type bench7Snapshot struct {
	Meta    benchMeta     `json:"meta"`
	Swap    bench7Swap    `json:"swap"`
	Rolling bench7Rolling `json:"rolling"`
}

type bench7Swap struct {
	Senders   int   `json:"senders"`
	Swaps     int   `json:"swaps"`
	Sent      int64 `json:"sent"`
	Delivered int64 `json:"delivered"`
	// Dropped = Sent - Delivered after the post-run drain; acceptance is 0.
	Dropped   int64 `json:"dropped"`
	OldServed int64 `json:"old_served"`
	NewServed int64 `json:"new_served"`
	// Pause percentiles over the per-swap route-flip pauses.
	PauseMedianNs int64   `json:"pause_median_ns"`
	PauseP99Ns    int64   `json:"pause_p99_ns"`
	PauseMaxNs    int64   `json:"pause_max_ns"`
	PausesNs      []int64 `json:"pauses_ns"`
	// Route generations bracket the run: end-start >= swaps.
	RouteGenStart uint64 `json:"route_gen_start"`
	RouteGenEnd   uint64 `json:"route_gen_end"`
}

type bench7Rolling struct {
	Replicas int `json:"replicas"`
	Workers  int `json:"workers"`
	// Phases: goodput before, during, and after the rolling upgrade.
	Phases []bench5Phase `json:"phases"`
	// Errors is the count of invocations that surfaced an error to the
	// caller; acceptance is 0 (retries and failover absorb the roll).
	Errors       int64 `json:"errors"`
	BreakerTrips int64 `json:"breaker_trips"`
	// MemberPauseNs is each member's retirement pause (settle + drain).
	MemberPauseNs []int64 `json:"member_pause_ns"`
	AllDrained    bool    `json:"all_drained"`
	// OldServed/NewServed split deliveries by code version.
	OldServed int64 `json:"old_served"`
	NewServed int64 `json:"new_served"`
	// UpgradeWindows are 10ms goodput buckets around the upgrade start.
	UpgradeWindows []bench5Window `json:"upgrade_windows"`
}

// b7msg is the benchmark message: 8 bytes on the wire.
type b7msg struct{ v int64 }

func (m *b7msg) Reset() { m.v = 0 }

func (m *b7msg) MarshalBinary() ([]byte, error) {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(m.v))
	return b, nil
}

func (m *b7msg) UnmarshalBinary(b []byte) error {
	if len(b) != 8 {
		return errors.New("b7msg: bad length")
	}
	m.v = int64(binary.BigEndian.Uint64(b))
	return nil
}

var b7Type = core.MessageType{Name: "B7", Size: 32, New: func() core.Message { return &b7msg{} }}

const bench7Defs = `
<ComponentDefinitions>
  <Component>
    <ComponentName>B7Hub</ComponentName>
    <Port><PortName>feed</PortName><PortType>Out</PortType><MessageType>B7</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>B7WorkerV1</ComponentName>
    <Port><PortName>in</PortName><PortType>In</PortType><MessageType>B7</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>B7WorkerV2</ComponentName>
    <Port><PortName>in</PortName><PortType>In</PortType><MessageType>B7</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>B7Sink</ComponentName>
    <Port><PortName>in</PortName><PortType>In</PortType><MessageType>B7</MessageType></Port>
  </Component>
</ComponentDefinitions>`

func bench7App(workerClass string) string {
	return fmt.Sprintf(`
<Application>
  <ApplicationName>Bench7</ApplicationName>
  <Component>
    <InstanceName>H</InstanceName>
    <ClassName>B7Hub</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port>
        <PortName>feed</PortName>
        <Link><PortType>Internal</PortType><ToComponent>W</ToComponent><ToPort>in</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>W</InstanceName>
      <ClassName>%s</ClassName>
      <ComponentType>Scoped</ComponentType>
      <MemorySize>16384</MemorySize>
    </Component>
  </Component>
</Application>`, workerClass)
}

const bench7ClusterApp = `
<Application>
  <ApplicationName>Bench7Cluster</ApplicationName>
  <Component>
    <InstanceName>Collector</InstanceName>
    <ClassName>B7Sink</ClassName>
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

const (
	bench7Senders  = 4
	bench7Swaps    = 40
	bench7SwapGap  = 2 * time.Millisecond
	bench7Replicas = 3
	bench7Workers  = 4
	bench7PhaseDur = 150 * time.Millisecond
)

func bench7Compile(appDoc string) (*compiler.Plan, error) {
	defs, err := cdl.Parse(strings.NewReader(bench7Defs))
	if err != nil {
		return nil, err
	}
	app, err := ccl.Parse(strings.NewReader(appDoc))
	if err != nil {
		return nil, err
	}
	return compiler.Compile(defs, app)
}

// bench7Registry binds every benchmark class; the worker and sink handlers
// count into old/new by code version.
func bench7Registry(oldServed, newServed *atomic.Int64) (*compiler.Registry, error) {
	reg := compiler.NewRegistry()
	if err := reg.RegisterType(b7Type); err != nil {
		return nil, err
	}
	count := func(ctr *atomic.Int64) compiler.ClassBinding {
		return compiler.ClassBinding{
			NewHandlers: func(c *core.Component) (map[string]core.Handler, error) {
				return map[string]core.Handler{
					"in": core.HandlerFunc(func(p *core.Proc, m core.Message) error {
						ctr.Add(1)
						return nil
					}),
				}, nil
			},
		}
	}
	if err := reg.RegisterClass("B7Hub", compiler.ClassBinding{}); err != nil {
		return nil, err
	}
	if err := reg.RegisterClass("B7WorkerV1", count(oldServed)); err != nil {
		return nil, err
	}
	if err := reg.RegisterClass("B7WorkerV2", count(newServed)); err != nil {
		return nil, err
	}
	if err := reg.RegisterClass("B7Sink", count(oldServed)); err != nil {
		return nil, err
	}
	return reg, nil
}

func runBench7(warmup, obs int, outPath string) error {
	fmt.Printf("== BENCH_7 snapshot: live reconfiguration ==\n")
	fmt.Printf("   (part A: %d hot swaps under %d senders; part B: rolling upgrade of a %d-replica group)\n\n",
		bench7Swaps, bench7Senders, bench7Replicas)

	snap := bench7Snapshot{Meta: currentBenchMeta()}
	if err := runBench7Swap(&snap.Swap); err != nil {
		return fmt.Errorf("swap: %w", err)
	}
	if err := runBench7Rolling(&snap.Rolling); err != nil {
		return fmt.Errorf("rolling: %w", err)
	}

	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

// runBench7Swap hot-swaps W between its two versions bench7Swaps times while
// bench7Senders goroutines keep H.feed busy, and reports the pause
// distribution plus the zero-drop accounting.
func runBench7Swap(out *bench7Swap) error {
	planV1, err := bench7Compile(bench7App("B7WorkerV1"))
	if err != nil {
		return err
	}
	planV2, err := bench7Compile(bench7App("B7WorkerV2"))
	if err != nil {
		return err
	}
	var oldServed, newServed atomic.Int64
	reg, err := bench7Registry(&oldServed, &newServed)
	if err != nil {
		return err
	}
	dep, err := deploy.Run(planV1, reg, deploy.Config{})
	if err != nil {
		return err
	}
	defer dep.Close()

	smm := dep.App.Component("H").SMM()
	out.RouteGenStart = smm.RouteGeneration()

	var (
		stop    atomic.Bool
		sent    atomic.Int64
		sendErr atomic.Pointer[error]
		wg      sync.WaitGroup
	)
	for w := 0; w < bench7Senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op, err := smm.GetOutPort("H.feed")
			if err != nil {
				sendErr.CompareAndSwap(nil, &err)
				return
			}
			for !stop.Load() {
				msg, err := op.GetMessage()
				if errors.Is(err, core.ErrPoolEmpty) {
					time.Sleep(20 * time.Microsecond)
					continue
				}
				if err != nil {
					sendErr.CompareAndSwap(nil, &err)
					return
				}
				msg.(*b7msg).v = 1
				err = op.Send(msg, sched.NormPriority)
				if errors.Is(err, core.ErrBufferFull) {
					time.Sleep(50 * time.Microsecond)
					continue
				}
				if err != nil {
					sendErr.CompareAndSwap(nil, &err)
					return
				}
				sent.Add(1)
			}
		}()
	}

	// Alternate versions; every Apply is one swap of W under live traffic.
	plans := [2]*compiler.Plan{planV1, planV2}
	cur := planV1
	pauses := make([]int64, 0, bench7Swaps)
	for i := 0; i < bench7Swaps; i++ {
		next := plans[(i+1)%2]
		delta, err := compiler.Diff(cur, next)
		if err != nil {
			stop.Store(true)
			wg.Wait()
			return err
		}
		st, err := dep.Apply(delta)
		if err != nil {
			stop.Store(true)
			wg.Wait()
			return err
		}
		pauses = append(pauses, st.MaxPauseNs)
		cur = next
		time.Sleep(bench7SwapGap)
	}
	stop.Store(true)
	wg.Wait()
	if ep := sendErr.Load(); ep != nil {
		return *ep
	}

	// Drain: every sent message must land on exactly one version.
	deadline := time.Now().Add(10 * time.Second)
	for oldServed.Load()+newServed.Load() < sent.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	out.Senders = bench7Senders
	out.Swaps = bench7Swaps
	out.Sent = sent.Load()
	out.OldServed = oldServed.Load()
	out.NewServed = newServed.Load()
	out.Delivered = out.OldServed + out.NewServed
	out.Dropped = out.Sent - out.Delivered
	out.PausesNs = pauses
	durs := make([]time.Duration, len(pauses))
	for i, p := range pauses {
		durs[i] = time.Duration(p)
	}
	s := metrics.Summarize(durs)
	out.PauseMedianNs, out.PauseP99Ns, out.PauseMaxNs = int64(s.Median), int64(s.P99), int64(s.Max)
	out.RouteGenEnd = smm.RouteGeneration()

	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	fmt.Printf("  part A: %d swaps, %d sent, %d delivered, %d dropped (v1 %d / v2 %d)\n",
		out.Swaps, out.Sent, out.Delivered, out.Dropped, out.OldServed, out.NewServed)
	fmt.Printf("          pause median %sµs  p99 %sµs  max %sµs  (route gen %d -> %d)\n\n",
		metrics.Micros(time.Duration(out.PauseMedianNs)),
		metrics.Micros(time.Duration(out.PauseP99Ns)),
		metrics.Micros(time.Duration(out.PauseMaxNs)),
		out.RouteGenStart, out.RouteGenEnd)
	return nil
}

// runBench7Rolling upgrades a 3-replica cluster group one member at a time
// while bench7Workers drive acknowledged invocations through a replica-aware
// client; the acceptance bar is zero surfaced errors and zero breaker trips.
func runBench7Rolling(out *bench7Rolling) error {
	net := transport.NewInproc()
	planA, err := bench7Compile(bench7ClusterApp)
	if err != nil {
		return err
	}
	planB, err := bench7Compile(bench7ClusterApp)
	if err != nil {
		return err
	}
	var vOld, vNew atomic.Int64
	regOld, err := bench7Registry(&vOld, new(atomic.Int64))
	if err != nil {
		return err
	}
	// The "new version": same class name, its sink counts into vNew.
	regNew, err := bench7Registry(&vNew, new(atomic.Int64))
	if err != nil {
		return err
	}

	cd, err := deploy.RunCluster(planA, regOld, deploy.ClusterConfig{Network: net})
	if err != nil {
		return err
	}
	defer cd.Close()

	group := remote.PortKey("Collector.in")
	tripsBefore := telemetry.Default.Counter("breaker_open_total").Value()
	c, err := cluster.Dial(cluster.ClientConfig{
		Network: net, Directory: cd.DirectoryAddr(), Group: group,
		RefreshInterval: 2 * time.Millisecond,
		Resilience:      &orb.ResilienceConfig{MaxRetries: 8, BreakerThreshold: 4},
	})
	if err != nil {
		return err
	}
	defer c.Close()

	wire, err := (&b7msg{v: 7}).MarshalBinary()
	if err != nil {
		return err
	}
	for i := 0; i < 128; i++ { // warm every member
		if _, err := c.Invoke(group, "send", wire, sched.NormPriority); err != nil {
			return fmt.Errorf("warmup: %w", err)
		}
	}

	var (
		stop   atomic.Bool
		errCnt atomic.Int64
		wg     sync.WaitGroup
	)
	samples := make([][]bench5Sample, bench7Workers)
	t0 := time.Now()
	for w := 0; w < bench7Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]bench5Sample, 0, 1<<14)
			for !stop.Load() {
				s0 := time.Now()
				_, err := c.Invoke(group, "send", wire, sched.NormPriority)
				now := time.Now()
				if err != nil {
					errCnt.Add(1)
				}
				buf = append(buf, bench5Sample{
					at: now.Sub(t0).Nanoseconds(), lat: now.Sub(s0).Nanoseconds(), ok: err == nil,
				})
			}
			samples[w] = buf
		}(w)
	}

	time.Sleep(bench7PhaseDur)
	upgradeAt := time.Since(t0).Nanoseconds()
	rep, err := cd.RollingUpgrade("backend", planB, regNew, deploy.UpgradeOptions{
		SettleDelay: 25 * time.Millisecond, DrainTimeout: 2 * time.Second,
	})
	upgradeEnd := time.Since(t0).Nanoseconds()
	if err != nil {
		stop.Store(true)
		wg.Wait()
		return err
	}
	time.Sleep(bench7PhaseDur)
	stop.Store(true)
	wg.Wait()

	all := make([]bench5Sample, 0, 1<<16)
	for _, buf := range samples {
		all = append(all, buf...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })

	out.Replicas = bench7Replicas
	out.Workers = bench7Workers
	out.Errors = errCnt.Load()
	out.BreakerTrips = telemetry.Default.Counter("breaker_open_total").Value() - tripsBefore
	out.OldServed = vOld.Load()
	out.NewServed = vNew.Load()
	out.AllDrained = true
	for _, m := range rep.Members {
		out.MemberPauseNs = append(out.MemberPauseNs, m.PauseNs)
		if !m.Drained {
			out.AllDrained = false
		}
	}
	end := time.Since(t0).Nanoseconds()
	for _, ph := range []struct {
		name     string
		from, to int64
	}{
		{"baseline", 0, upgradeAt},
		{"rolling upgrade", upgradeAt, upgradeEnd},
		{"upgraded", upgradeEnd, end},
	} {
		out.Phases = append(out.Phases, bench5Summarize(ph.name, all, ph.from, ph.to))
	}
	out.UpgradeWindows = bench5Windows(all, upgradeAt)

	for _, ph := range out.Phases {
		fmt.Printf("  %-16s %8.0f ops/s  median %sµs  p99 %sµs  errors %d\n",
			ph.Name, ph.GoodputOps,
			metrics.Micros(time.Duration(ph.MedianNs)), metrics.Micros(time.Duration(ph.P99Ns)),
			ph.Errors)
	}
	fmt.Printf("  part B: %d members rolled, errors %d, breaker trips %d, drained %v, served old %d / new %d\n\n",
		len(rep.Members), out.Errors, out.BreakerTrips, out.AllDrained, out.OldServed, out.NewServed)
	return nil
}
