// Package experiments regenerates the paper's evaluation: Table 2 and
// Fig. 9 (round-trip latency and jitter of the component framework on three
// platforms), Fig. 11 (Compadres ORB vs RTZen across message sizes), and
// the ablations DESIGN.md calls out (cross-scope mechanisms, shadow ports,
// scope pools, synchronous vs pooled dispatch). The same entry points back
// cmd/benchharness's paper tables and the root testing.B benchmarks, so the
// printed rows and the benches cannot drift apart. The repository
// benchmark under bench/ drives its own workloads and does not use them.
package experiments

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/corba"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/orb"
	"repro/internal/platform"
	"repro/internal/rtzen"
	"repro/internal/sched"
	"repro/internal/transport"
)

// pingPayloadSize gives the experiment message a realistic body so the
// cross-scope mechanism ablation measures real copy costs, not just
// dispatch overhead.
const pingPayloadSize = 2048

// pingMsg is the experiment message type (the paper's MyInteger plus a
// payload). It is binary-(un)marshalable so the serialization-mechanism
// ablation can copy it across scopes.
type pingMsg struct {
	value   int64
	payload [pingPayloadSize]byte
}

func (m *pingMsg) Reset() { *m = pingMsg{} }

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *pingMsg) MarshalBinary() ([]byte, error) {
	b := make([]byte, 8+pingPayloadSize)
	binary.BigEndian.PutUint64(b, uint64(m.value))
	copy(b[8:], m.payload[:])
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *pingMsg) UnmarshalBinary(b []byte) error {
	if len(b) != 8+pingPayloadSize {
		return fmt.Errorf("pingMsg: bad length %d", len(b))
	}
	m.value = int64(binary.BigEndian.Uint64(b))
	copy(m.payload[:], b[8:])
	return nil
}

var pingType = core.MessageType{
	Name: "MyInteger",
	Size: 64 + pingPayloadSize,
	New:  func() core.Message { return &pingMsg{} },
}

// PingPong is the co-located client-server application of Fig. 6: an
// immortal component with Client and Server children wired P1→P2, P3→P4,
// P5→P6. Each RoundTrip sends a trigger and waits for the reply observed at
// P6.
type PingPong struct {
	app  *core.App
	imc  *core.Component
	p1   *core.OutPort
	done chan int64
}

// PingPongConfig parameterises the experiment app.
type PingPongConfig struct {
	// Synchronous runs all ports on the sending thread, isolating framework
	// overhead from Go scheduler noise (the experiment driver injects
	// platform noise explicitly).
	Synchronous bool
	// UseScopePool draws the children's areas from a level-1 pool.
	UseScopePool bool
	// Persistent keeps Client and Server alive across round trips (the
	// steady-state configuration).
	Persistent bool
	// Mechanism overrides the cross-scope mechanism; zero keeps the
	// default shared object.
	Mechanism core.Mechanism
}

// NewPingPong builds the Fig. 6 application.
func NewPingPong(cfg PingPongConfig) (*PingPong, error) {
	appCfg := core.AppConfig{Name: "PingPong", ImmortalSize: 1 << 20}
	if cfg.UseScopePool {
		appCfg.ScopePools = []core.ScopePoolSpec{{Level: 1, AreaSize: 1 << 15, Count: 3, Grow: true}}
	}
	app, err := core.NewApp(appCfg)
	if err != nil {
		return nil, err
	}
	pp := &PingPong{app: app, done: make(chan int64, 1)}

	threading := core.ThreadingShared
	if cfg.Synchronous {
		threading = core.ThreadingSynchronous
	}
	port := func(h core.Handler, buf int) core.InPortConfig {
		return core.InPortConfig{
			Type: pingType, BufferSize: buf, Threading: threading,
			MinThreads: 1, MaxThreads: 5, Handler: h,
		}
	}

	imc, err := app.NewImmortalComponent("IMC", func(c *core.Component) error {
		smm := c.SMM()
		p1, err := core.AddOutPort(c, smm, core.OutPortConfig{
			Name: "P1", Type: pingType, Dests: []string{"Client.P2"},
		})
		if err != nil {
			return err
		}
		pp.p1 = p1

		clientDef := core.ChildDef{
			Name: "Client", MemorySize: 1 << 15,
			UsePool: cfg.UseScopePool, Persistent: cfg.Persistent,
			Setup: func(cl *core.Component) error {
				// Register the Out port first and capture it in the handler
				// closure: the steady-state hop does no port lookup per
				// message.
				p3, err := core.AddOutPort(cl, smm, core.OutPortConfig{
					Name: "P3", Type: pingType, Dests: []string{"Server.P4"},
				})
				if err != nil {
					return err
				}
				p2 := port(core.HandlerFunc(func(p *core.Proc, m core.Message) error {
					in := m.(*pingMsg)
					req, err := p3.GetMessage()
					if err != nil {
						return err
					}
					req.(*pingMsg).value = in.value
					return p3.SendFrom(p, req, 3)
				}), 10)
				p2.Name = "P2"
				if _, err := core.AddInPort(cl, smm, p2); err != nil {
					return err
				}
				p6 := port(core.HandlerFunc(func(p *core.Proc, m core.Message) error {
					pp.done <- m.(*pingMsg).value
					return nil
				}), 20)
				p6.Name = "P6"
				_, err = core.AddInPort(cl, smm, p6)
				return err
			},
		}
		serverDef := core.ChildDef{
			Name: "Server", MemorySize: 1 << 15,
			UsePool: cfg.UseScopePool, Persistent: cfg.Persistent,
			Setup: func(sv *core.Component) error {
				p5, err := core.AddOutPort(sv, smm, core.OutPortConfig{
					Name: "P5", Type: pingType, Dests: []string{"Client.P6"},
				})
				if err != nil {
					return err
				}
				p4 := port(core.HandlerFunc(func(p *core.Proc, m core.Message) error {
					in := m.(*pingMsg)
					rep, err := p5.GetMessage()
					if err != nil {
						return err
					}
					rep.(*pingMsg).value = in.value + 1
					return p5.SendFrom(p, rep, 3)
				}), 20)
				p4.Name = "P4"
				_, err = core.AddInPort(sv, smm, p4)
				return err
			},
		}
		if err := c.DefineChild(clientDef); err != nil {
			return err
		}
		if err := c.DefineChild(serverDef); err != nil {
			return err
		}
		if mech := cfg.Mechanism; mech != 0 {
			smm.SetMechanism(mech)
		}
		return nil
	})
	if err != nil {
		app.Stop()
		return nil, err
	}
	pp.imc = imc
	if err := app.Start(); err != nil {
		app.Stop()
		return nil, err
	}
	return pp, nil
}

// RoundTrip performs one trigger→request→reply cycle and returns the value
// observed at P6.
func (pp *PingPong) RoundTrip(v int64) (int64, error) {
	msg, err := pp.p1.GetMessage()
	if err != nil {
		return 0, err
	}
	msg.(*pingMsg).value = v
	if pp.imc.SMM().Mechanism() == core.MechanismHandoff {
		// The handoff mechanism needs the sender's scope stack: trigger
		// from within the IMC's execution context.
		err = pp.imc.Exec(func(ctx *memory.Context) error {
			proc := core.NewProc(pp.imc, pp.imc.SMM(), ctx, 2)
			return pp.p1.SendFrom(proc, msg, 2)
		})
	} else {
		err = pp.p1.Send(msg, 2)
	}
	if err != nil {
		return 0, err
	}
	return <-pp.done, nil
}

// Close stops the application.
func (pp *PingPong) Close() { pp.app.Stop() }

// PlatformRow is one row of Table 2 / one series of Fig. 9.
type PlatformRow struct {
	Platform string
	Summary  metrics.Summary
	Samples  []time.Duration
}

// RunTable2 reproduces Table 2 and the Fig. 9 distributions: the co-located
// Compadres client-server round trip on the three simulated platforms.
func RunTable2(warmup, observations int) ([]PlatformRow, error) {
	rows := make([]PlatformRow, 0, 3)
	for _, model := range platform.Models() {
		row, err := runPlatform(model, warmup, observations)
		if err != nil {
			return nil, fmt.Errorf("platform %s: %w", model.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runPlatform(model platform.Model, warmup, observations int) (PlatformRow, error) {
	pp, err := NewPingPong(PingPongConfig{Synchronous: true, Persistent: true})
	if err != nil {
		return PlatformRow{}, err
	}
	defer pp.Close()
	defer quiesceGC()()

	inj := platform.NewInjector(model, 1)
	var i int64
	samples := make([]time.Duration, 0, observations)
	op := func() error {
		i++
		_, err := pp.RoundTrip(i)
		return err
	}
	for w := 0; w < warmup; w++ {
		if err := op(); err != nil {
			return PlatformRow{}, err
		}
	}
	for n := 0; n < observations; n++ {
		start := time.Now()
		inj.Operation() // platform noise lands inside the timed window
		if err := op(); err != nil {
			return PlatformRow{}, err
		}
		samples = append(samples, time.Since(start))
	}
	return PlatformRow{Platform: model.Name, Summary: metrics.Summarize(samples), Samples: samples}, nil
}

// Fig11Point is one (ORB, message size) cell of Fig. 11.
type Fig11Point struct {
	ORB     string
	Size    int
	Summary metrics.Summary
}

// Fig11Sizes are the paper's message sizes (32–1024 bytes).
var Fig11Sizes = []int{32, 64, 128, 256, 512, 1024}

// RunFig11 reproduces Fig. 11: round-trip latency of the Compadres ORB and
// the hand-coded RTZen baseline for each message size, both on the TimeSys
// RI platform model over an in-process loopback transport.
func RunFig11(sizes []int, warmup, observations int) ([]Fig11Point, error) {
	if len(sizes) == 0 {
		sizes = Fig11Sizes
	}
	var points []Fig11Point
	for _, size := range sizes {
		comp, err := runFig11Compadres(size, warmup, observations)
		if err != nil {
			return nil, fmt.Errorf("compadres size %d: %w", size, err)
		}
		points = append(points, comp)
		zen, err := runFig11RTZen(size, warmup, observations)
		if err != nil {
			return nil, fmt.Errorf("rtzen size %d: %w", size, err)
		}
		points = append(points, zen)
	}
	return points, nil
}

func runFig11Compadres(size, warmup, observations int) (Fig11Point, error) {
	net := transport.NewInproc()
	srv, err := orb.NewServer(orb.ServerConfig{Network: net, Synchronous: true})
	if err != nil {
		return Fig11Point{}, err
	}
	defer srv.Close()
	srv.RegisterServant("echo", corba.EchoServant{})
	srv.ServeBackground()

	cl, err := orb.DialClient(orb.ClientConfig{Network: net, Addr: srv.Addr(), Synchronous: true})
	if err != nil {
		return Fig11Point{}, err
	}
	defer cl.Close()

	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	summary, err := measureEcho(warmup, observations, func() error {
		_, err := cl.Invoke("echo", "echo", payload, sched.NormPriority)
		return err
	})
	if err != nil {
		return Fig11Point{}, err
	}
	return Fig11Point{ORB: "CompadresORB", Size: size, Summary: summary}, nil
}

func runFig11RTZen(size, warmup, observations int) (Fig11Point, error) {
	net := transport.NewInproc()
	srv, err := rtzen.NewServer(rtzen.ServerConfig{Network: net})
	if err != nil {
		return Fig11Point{}, err
	}
	defer srv.Close()
	srv.RegisterServant("echo", corba.EchoServant{})
	srv.ServeBackground()

	cl, err := rtzen.DialClient(rtzen.ClientConfig{Network: net, Addr: srv.Addr()})
	if err != nil {
		return Fig11Point{}, err
	}
	defer cl.Close()

	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	summary, err := measureEcho(warmup, observations, func() error {
		_, err := cl.Invoke("echo", "echo", payload, sched.NormPriority)
		return err
	})
	if err != nil {
		return Fig11Point{}, err
	}
	return Fig11Point{ORB: "RTZen", Size: size, Summary: summary}, nil
}

// quiesceGC collects once and disables Go's collector for the duration of a
// measurement — the measured system is the simulated RTSJ, whose regions
// are never garbage collected, so the host collector must not pollute the
// jitter. The returned function restores the previous setting.
func quiesceGC() func() {
	runtime.GC()
	prev := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(prev) }
}

// measureEcho injects TimeSys-RI noise inside the timed window, matching
// the paper's single-platform Fig. 11 setup.
func measureEcho(warmup, observations int, op func() error) (metrics.Summary, error) {
	defer quiesceGC()()
	inj := platform.NewInjector(platform.TimesysRI(), 2)
	for i := 0; i < warmup; i++ {
		if err := op(); err != nil {
			return metrics.Summary{}, err
		}
	}
	samples := make([]time.Duration, 0, observations)
	for i := 0; i < observations; i++ {
		start := time.Now()
		inj.Operation()
		if err := op(); err != nil {
			return metrics.Summary{}, err
		}
		samples = append(samples, time.Since(start))
	}
	return metrics.Summarize(samples), nil
}
