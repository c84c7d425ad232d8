package main

import (
	"bytes"
	_ "embed"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"unsafe"

	"repro/internal/ccl"
	"repro/internal/cdl"
	"repro/internal/compiler"
	"repro/internal/corba"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/orb"
	"repro/internal/overload"
	"repro/internal/rtzen"
	"repro/internal/sched"
	"repro/internal/transport"
)

//go:embed pingpong.cdl.xml
var pingpongCDL string

//go:embed pingpong.ccl.xml
var pingpongCCL string

// payloadSize is Fig. 11's 256-byte cell, the size every ORB workload uses.
const payloadSize = 256

// pipelinedCallers is orb_pipelined's closed-loop caller count.
const pipelinedCallers = 16

// errWrongReply marks an operation whose reply arrived but failed its check.
var errWrongReply = errors.New("wrong reply")

// workload describes one of the benchmark's traffic mixes. Why each exists
// is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	// home is empty for the four workloads BENCHMARK.json lists. A cell (a
	// variant measured only for the per-layer bill) names the workload whose
	// traced run includes it.
	home    string
	procs   int // GOMAXPROCS for the repetition; 0 means NumCPU
	callers int // closed-loop callers, each waiting for its reply
	// batch > 0 times that many operations per clock pair: the operation is
	// shorter than 2 µs. A batch lasts 13 to 23 µs: the clock reads are under
	// 0.5 % of it, and a 100 ms slice still holds the thousands of samples
	// its own p99 needs.
	batch     int
	transport string
	// baselineEvery makes every n-th slice of the measured window an RTZen
	// slice (2 = alternate).
	baselineEvery int
	payload       int
	orb           *orbShape // nil: the Fig. 6 component application, no ORB
	telemetryOff  bool      // run with telemetry.Enable(false)
}

// orbShape is how an ORB workload configures its endpoints and calls them.
// Zero values are what a default user gets: thread-pool ports, no
// coalescing, corba.EchoServant, Invoke over an in-process network.
type orbShape struct {
	tcp           bool   // host-loopback TCP instead of transport.Inproc
	synchronous   bool   // Synchronous on both ends
	coalesce      bool   // Coalesce on both ends
	collocateCtrl bool   // Collocate client + overload.Controller on the server
	noCopyServant bool   // echoNoCopy instead of corba.EchoServant
	call          string // "" Invoke, "view" InvokeView, "oneway" InvokeOneway
}

var (
	lockstepShape  = orbShape{synchronous: true}
	pipelinedShape = orbShape{tcp: true, noCopyServant: true}
)

// workloads are the four traffic mixes of BENCHMARK.json, in its order. The
// single-caller ones run at GOMAXPROCS = NumCPU, as a Go user runs them;
// orb_pipelined is pinned to 1 because with two or more concurrent invokers
// the wire path wedges at GOMAXPROCS >= 2 (README, findings).
var workloads = []workload{
	{name: "pingpong_sync", callers: 1, batch: 16, transport: "none (in-process ports); baseline inproc", baselineEvery: 5, payload: payloadSize},
	{name: "orb_lockstep", callers: 1, transport: "inproc", baselineEvery: 2, payload: payloadSize, orb: &lockstepShape},
	{name: "orb_pipelined", procs: 1, callers: pipelinedCallers, transport: "host-loopback TCP", baselineEvery: 5, payload: payloadSize, orb: &pipelinedShape},
	{name: "collocated_admit", callers: 1, batch: 64, transport: "collocated (inproc registry); baseline inproc", baselineEvery: 5, payload: payloadSize,
		orb: &orbShape{collocateCtrl: true, noCopyServant: true}},
}

// cells are variants of a workload that only the per-layer bill reports:
// the same layer at another size, used another way, or configured another
// way. Each runs as one short repetition inside its home workload's traced
// run, at its home's GOMAXPROCS except the multi-core probe.
var cells = []workload{
	{name: "pingpong_sync/telemetry_off", home: "pingpong_sync", callers: 1, batch: 16, baselineEvery: 5, payload: payloadSize, telemetryOff: true},
	{name: "orb_lockstep/32B", home: "orb_lockstep", callers: 1, baselineEvery: 2, payload: 32, orb: &lockstepShape},
	{name: "orb_lockstep/1024B", home: "orb_lockstep", callers: 1, baselineEvery: 2, payload: 1024, orb: &lockstepShape},
	{name: "orb_lockstep/view", home: "orb_lockstep", callers: 1, baselineEvery: 5, payload: payloadSize, orb: &orbShape{synchronous: true, call: "view"}},
	{name: "orb_lockstep/oneway", home: "orb_lockstep", callers: 1, baselineEvery: 5, payload: payloadSize, orb: &orbShape{synchronous: true, call: "oneway"}},
	{name: "orb_pipelined/coalesce", home: "orb_pipelined", procs: 1, callers: pipelinedCallers, baselineEvery: 5, payload: payloadSize,
		orb: &orbShape{tcp: true, noCopyServant: true, coalesce: true}},
	{name: "orb_pipelined/sync", home: "orb_pipelined", procs: 1, callers: pipelinedCallers, baselineEvery: 5, payload: payloadSize,
		orb: &orbShape{tcp: true, noCopyServant: true, synchronous: true}},
	// The multi-core probe: orb_pipelined at GOMAXPROCS = NumCPU, where it
	// wedges on the seed; it cannot carry a regression bound until that is fixed.
	{name: "orb_pipelined/mp", home: "orb_pipelined", callers: pipelinedCallers, baselineEvery: 5, payload: payloadSize, orb: &pipelinedShape},
}

func findWorkload(name string) (workload, bool) {
	for _, set := range [][]workload{workloads, cells} {
		for _, w := range set {
			if w.name == name {
				return w, true
			}
		}
	}
	return workload{}, false
}

// cellsOf returns the cells whose home is the named workload.
func cellsOf(home string) []workload {
	var out []workload
	for _, c := range cells {
		if c.home == home {
			out = append(out, c)
		}
	}
	return out
}

func (w workload) build(seed int64, tr *tracer) (*instance, error) {
	if w.orb == nil {
		return buildPingPong(w, seed, tr)
	}
	return buildORB(w, seed, tr)
}

func (w workload) gomaxprocs() int {
	if w.procs > 0 {
		return w.procs
	}
	return runtime.NumCPU()
}

// instance is one assembled workload inside a child process.
type instance struct {
	// op performs one operation for the given caller and reports an error
	// when it fails or its reply is wrong. check asks for the full reply
	// verification (always during warm-up, 1-in-64 in the window). sp, when
	// non-nil, is the trace slot of this operation.
	op func(caller int, seq uint64, check bool, sp *opSpan) error
	// baseline is one RTZen round trip on the workload's transport.
	baseline func(seq uint64, check bool, sp *opSpan) error
	// verify runs after the window with the number of completed main-leg
	// operations and the counter deltas; it returns an error when an exact
	// count the workload promises does not hold.
	verify func(ops int64, d counts) error
	ctrl   *overload.Controller
	// pools are the scope pools the benchmark can reach through exported
	// accessors (App().ScopePool); their Stats feed the reuse ratio.
	pools []*memory.ScopePool
	// baseNet, baseAddr and payload say where startBaseline puts the RTZen
	// pair; it starts after set-up time has been taken.
	baseNet  transport.Network
	baseAddr string
	payload  []byte
	closers  []func()
}

func (in *instance) close() {
	for i := len(in.closers) - 1; i >= 0; i-- {
		in.closers[i]()
	}
}

// seededPayload returns the workload's request body.
func seededPayload(seed int64, n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// echoNoCopy answers with its input slice: the servant half of the
// zero-copy contract (corba.EchoServant makes one defensive copy per call).
var echoNoCopy = corba.ServantFunc(func(op string, in []byte) ([]byte, error) { return in, nil })

// stampServant wraps a servant with entry/exit stamps for the traced
// repetition. The request's first four bytes carry 1+slot of the operation's
// trace slot (0: not sampled); the reply is unchanged.
type stampServant struct {
	inner corba.Servant
	tr    *tracer
}

func (s stampServant) Invoke(op string, in []byte) ([]byte, error) {
	var sp *opSpan
	if len(in) >= 4 {
		sp = s.tr.slot(binary.BigEndian.Uint32(in))
	}
	if sp != nil {
		sp.a = nowNs()
	}
	out, err := s.inner.Invoke(op, in)
	if sp != nil {
		sp.b = nowNs()
	}
	return out, err
}

// traced wraps sv when tr is recording; untraced runs register sv itself.
func traced(sv corba.Servant, tr *tracer) corba.Servant {
	if tr == nil {
		return sv
	}
	return stampServant{inner: sv, tr: tr}
}

// tag writes the trace slot reference into a caller-owned payload.
func tag(payload []byte, tr *tracer, sp *opSpan) {
	if tr != nil {
		binary.BigEndian.PutUint32(payload, tr.ref(sp))
	}
}

// startBaseline starts an RTZen server/client pair on the workload's
// transport and installs the baseline leg. RTZen serialises exchanges on one
// connection, so the leg is always a single lock-step caller.
func (in *instance) startBaseline(tr *tracer) error {
	net := in.baseNet
	srv, err := rtzen.NewServer(rtzen.ServerConfig{Network: net, Addr: in.baseAddr})
	if err != nil {
		return fmt.Errorf("rtzen server: %w", err)
	}
	in.closers = append(in.closers, srv.Close)
	srv.RegisterServant("echo", traced(corba.EchoServant{}, tr))
	srv.ServeBackground()
	cl, err := rtzen.DialClient(rtzen.ClientConfig{Network: net, Addr: srv.Addr()})
	if err != nil {
		return fmt.Errorf("rtzen dial: %w", err)
	}
	in.closers = append(in.closers, cl.Close)
	body := append([]byte(nil), in.payload...)
	in.baseline = func(seq uint64, check bool, sp *opSpan) error {
		tag(body, tr, sp)
		out, err := cl.Invoke("echo", "echo", body, sched.NormPriority)
		if err != nil {
			return err
		}
		if check && !bytes.Equal(out, body) {
			return errWrongReply
		}
		return nil
	}
	return nil
}

// myInteger is the paper's MyInteger message.
type myInteger struct{ value int64 }

func (m *myInteger) Reset() { m.value = 0 }

var myIntegerType = core.MessageType{Name: "MyInteger", Size: 16, New: func() core.Message { return &myInteger{} }}

// assemblePingPong runs the declarative front end on the embedded documents
// and returns the started application, its trigger port, and the channel P6
// answers on. cur points at the trace slot of the operation in flight (the
// application is synchronous and has one caller, so a plain pointer is safe).
func assemblePingPong(cur **opSpan) (*core.App, *core.OutPort, chan int64, error) {
	defs, err := cdl.Parse(strings.NewReader(pingpongCDL))
	if err != nil {
		return nil, nil, nil, err
	}
	doc, err := ccl.Parse(strings.NewReader(pingpongCCL))
	if err != nil {
		return nil, nil, nil, err
	}
	plan, err := compiler.Compile(defs, doc)
	if err != nil {
		return nil, nil, nil, err
	}
	done := make(chan int64, 1)
	reg, err := pingPongRegistry(done, cur)
	if err != nil {
		return nil, nil, nil, err
	}
	app, err := compiler.Assemble(plan, reg)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := app.Start(); err != nil {
		app.Stop()
		return nil, nil, nil, err
	}
	p1, err := app.Component("IMC").SMM().GetOutPort("IMC.P1")
	if err != nil {
		app.Stop()
		return nil, nil, nil, err
	}
	return app, p1, done, nil
}

// pingPongRegistry supplies the programmer-written half of Fig. 6: P2
// forwards the value on P3, P4 answers value+1 on P5, P6 hands the reply to
// the caller. Each handler stamps its entry when the operation is sampled.
func pingPongRegistry(done chan int64, cur **opSpan) (*compiler.Registry, error) {
	reg := compiler.NewRegistry()
	if err := reg.RegisterType(myIntegerType); err != nil {
		return nil, err
	}
	// forward builds a handler that copies the value (plus delta) to the
	// named Out port, resolved on first use: Assemble creates the handlers
	// before the instance's ports.
	forward := func(outName string, delta int64, stamp func(*opSpan)) core.Handler {
		var out *core.OutPort
		return core.HandlerFunc(func(p *core.Proc, m core.Message) error {
			if sp := *cur; sp != nil {
				stamp(sp)
			}
			if out == nil {
				o, err := p.SMM().GetOutPort(outName)
				if err != nil {
					return err
				}
				out = o
			}
			next, err := out.GetMessage()
			if err != nil {
				return err
			}
			next.(*myInteger).value = m.(*myInteger).value + delta
			return out.Send(next, 3)
		})
	}
	if err := reg.RegisterClass("ImmortalComponent", compiler.ClassBinding{}); err != nil {
		return nil, err
	}
	if err := reg.RegisterClass("Client", compiler.ClassBinding{
		NewHandlers: func(*core.Component) (map[string]core.Handler, error) {
			return map[string]core.Handler{
				"P2": forward("Client.P3", 0, func(sp *opSpan) { sp.a = nowNs() }),
				"P6": core.HandlerFunc(func(p *core.Proc, m core.Message) error {
					if sp := *cur; sp != nil {
						sp.c = nowNs()
					}
					done <- m.(*myInteger).value
					return nil
				}),
			}, nil
		},
	}); err != nil {
		return nil, err
	}
	if err := reg.RegisterClass("Server", compiler.ClassBinding{
		NewHandlers: func(*core.Component) (map[string]core.Handler, error) {
			return map[string]core.Handler{
				"P4": forward("Server.P5", 1, func(sp *opSpan) { sp.b = nowNs() }),
			}, nil
		},
	}); err != nil {
		return nil, err
	}
	return reg, nil
}

func buildPingPong(w workload, seed int64, tr *tracer) (*instance, error) {
	in := &instance{}
	var cur *opSpan
	app, p1, done, err := assemblePingPong(&cur)
	if err != nil {
		return nil, err
	}
	in.closers = append(in.closers, app.Stop)
	base := rand.New(rand.NewSource(seed)).Int63n(1 << 40)
	in.op = func(_ int, seq uint64, _ bool, sp *opSpan) error {
		cur = sp
		v := base + int64(seq)
		msg, err := p1.GetMessage()
		if err != nil {
			return err
		}
		msg.(*myInteger).value = v
		if err := p1.Send(msg, 2); err != nil {
			return err
		}
		select {
		case got := <-done:
			if got != v+1 {
				return errWrongReply
			}
			return nil
		default:
			// Synchronous ports ran the whole chain inside Send; no reply
			// by now means a handler failed.
			n, herr := app.Errors()
			return fmt.Errorf("no reply at P6 (%d handler errors, last: %v)", n, herr)
		}
	}
	in.pools = []*memory.ScopePool{app.ScopePool(1)}
	in.baseNet, in.payload = transport.NewInproc(), seededPayload(seed, w.payload)
	return in, nil
}

// buildORB starts an ORB server and client shaped by w.orb and returns the
// echo operation its callers repeat.
func buildORB(w workload, seed int64, tr *tracer) (*instance, error) {
	in := &instance{}
	shape := *w.orb
	payload := seededPayload(seed, w.payload)

	scfg := orb.ServerConfig{Network: transport.NewInproc(), ScopePoolCount: 4, Synchronous: shape.synchronous}
	ccfg := orb.ClientConfig{ScopePoolCount: 4, Synchronous: shape.synchronous}
	in.baseNet = scfg.Network // RTZen shares the Inproc network
	if shape.tcp {
		scfg.Network, scfg.Addr = transport.TCP{}, "127.0.0.1:0"
		in.baseNet, in.baseAddr = scfg.Network, scfg.Addr
	}
	if shape.coalesce {
		scfg.Coalesce, ccfg.Coalesce = &orb.CoalesceConfig{}, &orb.CoalesceConfig{}
	}
	if shape.collocateCtrl {
		in.ctrl = overload.NewController(overload.Config{})
		in.closers = append(in.closers, in.ctrl.Close)
		scfg.Addr, scfg.Overload = "collocated", in.ctrl
		ccfg.Collocate = true
		ccfg.Tenant = overload.Tenant{ID: 1 + uint64(rand.New(rand.NewSource(seed)).Int63n(1<<20)), Tier: overload.Tier1}
	}
	var sv corba.Servant = corba.EchoServant{}
	if shape.noCopyServant {
		sv = echoNoCopy
	}

	srv, err := orb.NewServer(scfg)
	if err != nil {
		in.close()
		return nil, fmt.Errorf("orb server: %w", err)
	}
	in.closers = append(in.closers, srv.Close)
	srv.RegisterServant("echo", traced(sv, tr))
	srv.ServeBackground()
	ccfg.Network, ccfg.Addr = scfg.Network, srv.Addr()
	cl, err := orb.DialClient(ccfg)
	if err != nil {
		in.close()
		return nil, fmt.Errorf("orb dial: %w", err)
	}
	in.closers = append(in.closers, cl.Close)
	// Client MessageProcessing scopes are level 2, server RequestProcessing
	// scopes level 3.
	in.pools = append(in.pools, cl.App().ScopePool(2), srv.App().ScopePool(3))
	in.payload = payload

	// Every caller owns a copy of the payload: the traced run writes the
	// operation's slot reference into it.
	bodies := make([][]byte, w.callers)
	for i := range bodies {
		bodies[i] = append([]byte(nil), payload...)
	}
	// A collocated reply must be the servant's slice: same memory, no copy.
	same := func(out, body []byte) bool {
		if shape.collocateCtrl {
			return len(out) == len(body) && unsafe.SliceData(out) == unsafe.SliceData(body)
		}
		return bytes.Equal(out, body)
	}
	switch shape.call {
	case "":
		in.op = func(caller int, _ uint64, check bool, sp *opSpan) error {
			body := bodies[caller]
			tag(body, tr, sp)
			out, err := cl.Invoke("echo", "echo", body, sched.NormPriority)
			if err != nil {
				return err
			}
			if check && !same(out, body) {
				return errWrongReply
			}
			return nil
		}
	case "view":
		in.op = func(caller int, _ uint64, check bool, sp *opSpan) error {
			body := bodies[caller]
			tag(body, tr, sp)
			return cl.InvokeView("echo", "echo", body, sched.NormPriority, func(reply memory.Loan) error {
				if !check {
					return nil
				}
				out, err := reply.Bytes()
				if err != nil {
					return err
				}
				if !bytes.Equal(out, body) {
					return errWrongReply
				}
				return nil
			})
		}
	case "oneway":
		in.op = func(caller int, _ uint64, _ bool, sp *opSpan) error {
			body := bodies[caller]
			tag(body, tr, sp)
			return cl.InvokeOneway("echo", "echo", body, sched.NormPriority)
		}
	default:
		in.close()
		return nil, fmt.Errorf("unknown call kind %q", shape.call)
	}
	if shape.collocateCtrl {
		in.verify = func(ops int64, d counts) error {
			if d.collocated != ops {
				return fmt.Errorf("collocated_invoke_total moved by %d for %d operations (path share %.4f)", d.collocated, ops, float64(d.collocated)/float64(ops))
			}
			if d.payloadCopies != 0 {
				return fmt.Errorf("payload_copy_total moved by %d on the collocated path", d.payloadCopies)
			}
			return nil
		}
	}
	return in, nil
}
