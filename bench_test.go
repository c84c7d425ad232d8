package repro_test

// One benchmark per table and figure of the paper's evaluation, plus the
// ablations from DESIGN.md. The benches share their drivers with
// cmd/benchharness (package internal/experiments), so `go test -bench=.`
// and the harness measure the same code paths.
//
// Naming:
//
//	BenchmarkTable2_*            — Table 2 rows (per-platform round trip);
//	                               Fig. 9 is the same workload's distribution,
//	                               which only `benchharness -experiment fig9`
//	                               renders, so it has no bench of its own
//	BenchmarkFig11_*             — Fig. 11 cells (ORB × message size)
//	BenchmarkAblation*           — design-choice ablations
//	BenchmarkFramework*          — micro-benches of the framework hot paths

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/corba"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/giop"
	"repro/internal/memory"
	"repro/internal/orb"
	"repro/internal/overload"
	"repro/internal/platform"
	"repro/internal/rtzen"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// benchPingPong drives the Table 2 / Fig. 9 workload under a platform model.
func benchPingPong(b *testing.B, model platform.Model) {
	b.Helper()
	pp, err := experiments.NewPingPong(experiments.PingPongConfig{
		Synchronous: true, Persistent: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer pp.Close()
	inj := platform.NewInjector(model, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.Operation()
		if _, err := pp.RoundTrip(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_Mackinac(b *testing.B)  { benchPingPong(b, platform.Mackinac()) }
func BenchmarkTable2_TimesysRI(b *testing.B) { benchPingPong(b, platform.TimesysRI()) }
func BenchmarkTable2_JDK14(b *testing.B)     { benchPingPong(b, platform.JDK14()) }

// benchCompadresEcho drives one Fig. 11 Compadres ORB cell.
func benchCompadresEcho(b *testing.B, size int) {
	b.Helper()
	net := transport.NewInproc()
	srv, err := orb.NewServer(orb.ServerConfig{Network: net, Synchronous: true})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.RegisterServant("echo", corba.EchoServant{})
	srv.ServeBackground()
	cl, err := orb.DialClient(orb.ClientConfig{Network: net, Addr: srv.Addr(), Synchronous: true})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	payload := make([]byte, size)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Invoke("echo", "echo", payload, sched.NormPriority); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRTZenEcho drives one Fig. 11 RTZen cell.
func benchRTZenEcho(b *testing.B, size int) {
	b.Helper()
	net := transport.NewInproc()
	srv, err := rtzen.NewServer(rtzen.ServerConfig{Network: net})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.RegisterServant("echo", corba.EchoServant{})
	srv.ServeBackground()
	cl, err := rtzen.DialClient(rtzen.ClientConfig{Network: net, Addr: srv.Addr()})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	payload := make([]byte, size)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Invoke("echo", "echo", payload, sched.NormPriority); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11_CompadresORB(b *testing.B) {
	for _, size := range experiments.Fig11Sizes {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) { benchCompadresEcho(b, size) })
	}
}

func BenchmarkFig11_RTZen(b *testing.B) {
	for _, size := range experiments.Fig11Sizes {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) { benchRTZenEcho(b, size) })
	}
}

// benchMechanism drives the Fig. 6 round trip under one cross-scope
// mechanism (Ablation A).
func benchMechanism(b *testing.B, mech core.Mechanism) {
	b.Helper()
	pp, err := experiments.NewPingPong(experiments.PingPongConfig{
		Synchronous: true, Persistent: true, Mechanism: mech,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer pp.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pp.RoundTrip(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateRoundTrip is the tentpole's acceptance benchmark: the
// in-process Fig. 6 round trip (shared-object mechanism, persistent
// children, synchronous ports) after the pools are warm. The fast path —
// cached routes, pooled envelopes/contexts/dispatch state, preallocated
// buffers — must not allocate, with telemetry recording or without; the
// two sub-benchmarks make the counters' and flight recorder's overhead
// directly comparable.
func BenchmarkSteadyStateRoundTrip(b *testing.B) {
	for _, variant := range []struct {
		name     string
		on       bool
		overload bool
	}{{"TelemetryOn", true, false}, {"TelemetryOff", false, false}, {"OverloadOn", true, true}} {
		b.Run(variant.name, func(b *testing.B) {
			telemetry.Enable(variant.on)
			defer telemetry.Enable(true)
			pp, err := experiments.NewPingPong(experiments.PingPongConfig{
				Synchronous: true, Persistent: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer pp.Close()
			// The OverloadOn variant brackets every operation with the
			// controller's Admit and settle, the way an overload-controlled
			// server does (a single untiered tenant, id 0). The acceptance
			// bar: still 0 allocs/op.
			var ctrl *overload.Controller
			if variant.overload {
				ctrl = overload.NewController(overload.Config{})
				defer ctrl.Close()
			}
			// Warm every pool (envelopes, contexts, dispatch states, route
			// caches) before measuring.
			for i := 0; i < 64; i++ {
				if _, err := pp.RoundTrip(int64(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ctrl != nil {
					d := ctrl.Admit(0, overload.Tier1, sched.NormPriority)
					if !d.OK {
						b.Fatal("steady-state round trip shed")
					}
					if _, err := pp.RoundTrip(int64(i)); err != nil {
						b.Fatal(err)
					}
					settle(ctrl, d)
					continue
				}
				if _, err := pp.RoundTrip(int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The Collocated variant is the collocation acceptance pin: a full ORB
	// invocation through the collocated fast path — admission gate, tenant
	// classification, in-flight gauges and latency sample all live — must
	// cost zero allocations and zero counted payload copies per operation,
	// like the wire fast path it bypasses.
	b.Run("Collocated", func(b *testing.B) {
		cl, srv, ctrl := newCollocatedPair(b)
		defer cl.Close()
		defer srv.Close()
		defer ctrl.Close()
		payload := make([]byte, 256)
		for i := 0; i < 64; i++ {
			if _, err := cl.Invoke("echo", "echo", payload, sched.NormPriority); err != nil {
				b.Fatal(err)
			}
		}
		copiesBefore := telemetry.NewCounter("payload_copy_total").Value()
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Invoke("echo", "echo", payload, sched.NormPriority); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if d := telemetry.NewCounter("payload_copy_total").Value() - copiesBefore; d != 0 {
			b.Fatalf("collocated round trip charged %d payload copies, want 0", d)
		}
	})
	// The Wire variant is the remote lock-step path, the one Fig. 11
	// measures: marshal, frame, the per-request MessageProcessing and
	// RequestProcessing components revived and their areas reclaimed in
	// place, demarshal, reply.
	// With the shells' wedges embedded and operation names interned it has
	// no allocation left either.
	b.Run("Wire", func(b *testing.B) {
		invoke, done := newWirePair(b)
		defer done()
		for i := 0; i < 64; i++ {
			invoke()
		}
		b.SetBytes(256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			invoke()
		}
	})
}

// settle releases an admitted operation as the ORB server's admission does:
// a sampled one (Decision.At set) with its latency, any other as a bare
// completion. Timing an unsampled one from At 0 would feed the controller the
// monotonic clock as a latency, and its next window step would shed.
func settle(ctrl *overload.Controller, d overload.Decision) {
	if d.At != 0 {
		ctrl.Done(telemetry.Now() - d.At)
	} else {
		ctrl.Completed()
	}
}

// newWirePair stands up a Synchronous ORB server and client over the
// in-process transport — the orb_lockstep shape — and returns one 256-byte
// InvokeView echo against a servant that answers with its input slice, plus
// the teardown.
func newWirePair(tb testing.TB) (invoke func(), done func()) {
	tb.Helper()
	net := transport.NewInproc()
	srv, err := orb.NewServer(orb.ServerConfig{Network: net, Synchronous: true})
	if err != nil {
		tb.Fatal(err)
	}
	srv.RegisterServant("echo", corba.ServantFunc(func(op string, in []byte) ([]byte, error) {
		return in, nil
	}))
	srv.ServeBackground()
	cl, err := orb.DialClient(orb.ClientConfig{Network: net, Addr: srv.Addr(), Synchronous: true})
	if err != nil {
		srv.Close()
		tb.Fatal(err)
	}
	payload := make([]byte, 256)
	view := func(reply memory.Loan) error {
		if reply.Len() != len(payload) {
			return fmt.Errorf("echoed %d bytes, want %d", reply.Len(), len(payload))
		}
		return nil
	}
	invoke = func() {
		if err := cl.InvokeView("echo", "echo", payload, sched.NormPriority, view); err != nil {
			tb.Fatal(err)
		}
	}
	return invoke, func() { cl.Close(); srv.Close() }
}

// newCollocatedPair stands up an overload-gated ORB server and a
// collocation-enabled client to it in this process. The echo servant
// returns its input slice unchanged — the zero-copy collocation contract —
// so the round trip has no reason to touch the allocator.
func newCollocatedPair(tb testing.TB) (*orb.Client, *orb.Server, *overload.Controller) {
	tb.Helper()
	ctrl := overload.NewController(overload.Config{})
	net := transport.NewInproc()
	srv, err := orb.NewServer(orb.ServerConfig{Network: net, Overload: ctrl})
	if err != nil {
		tb.Fatal(err)
	}
	srv.RegisterServant("echo", corba.ServantFunc(func(op string, in []byte) ([]byte, error) {
		return in, nil
	}))
	srv.ServeBackground()
	cl, err := orb.DialClient(orb.ClientConfig{Network: net, Addr: srv.Addr(), Collocate: true})
	if err != nil {
		srv.Close()
		tb.Fatal(err)
	}
	return cl, srv, ctrl
}

// TestSteadyStateRoundTripAllocFree is the benchmark guard: the warm round
// trip must stay at zero allocations per operation whether telemetry records
// or not, so `go test ./...` (not just a manual bench run) catches a
// regression that puts an allocation on the fast path.
func TestSteadyStateRoundTripAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race suite")
	}
	for _, variant := range []struct {
		name     string
		on       bool
		overload bool
	}{{"TelemetryOn", true, false}, {"TelemetryOff", false, false}, {"OverloadOn", true, true}} {
		t.Run(variant.name, func(t *testing.T) {
			telemetry.Enable(variant.on)
			defer telemetry.Enable(true)
			pp, err := experiments.NewPingPong(experiments.PingPongConfig{
				Synchronous: true, Persistent: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pp.Close()
			var ctrl *overload.Controller
			if variant.overload {
				ctrl = overload.NewController(overload.Config{})
				defer ctrl.Close()
			}
			seq := int64(0)
			roundTrip := func() {
				if ctrl != nil {
					d := ctrl.Admit(0, overload.Tier1, sched.NormPriority)
					if !d.OK {
						t.Fatal("steady-state round trip shed")
					}
					if _, err := pp.RoundTrip(seq); err != nil {
						t.Fatal(err)
					}
					settle(ctrl, d)
					seq++
					return
				}
				if _, err := pp.RoundTrip(seq); err != nil {
					t.Fatal(err)
				}
				seq++
			}
			for i := 0; i < 64; i++ {
				roundTrip()
			}
			if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
				t.Errorf("steady-state round trip allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
	t.Run("Collocated", func(t *testing.T) {
		cl, srv, ctrl := newCollocatedPair(t)
		defer cl.Close()
		defer srv.Close()
		defer ctrl.Close()
		payload := make([]byte, 256)
		invoke := func() {
			if _, err := cl.Invoke("echo", "echo", payload, sched.NormPriority); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			invoke()
		}
		copiesBefore := telemetry.NewCounter("payload_copy_total").Value()
		if allocs := testing.AllocsPerRun(200, invoke); allocs != 0 {
			t.Errorf("collocated round trip allocates %.1f objects/op, want 0", allocs)
		}
		if d := telemetry.NewCounter("payload_copy_total").Value() - copiesBefore; d != 0 {
			t.Errorf("collocated round trip charged %d payload copies, want 0", d)
		}
	})
	t.Run("Wire", func(t *testing.T) {
		invoke, done := newWirePair(t)
		defer done()
		for i := 0; i < 64; i++ {
			invoke()
		}
		copiesBefore := telemetry.NewCounter("payload_copy_total").Value()
		if allocs := testing.AllocsPerRun(200, invoke); allocs != 0 {
			t.Errorf("remote lock-step round trip allocates %.1f objects/op, want 0", allocs)
		}
		if d := telemetry.NewCounter("payload_copy_total").Value() - copiesBefore; d != 0 {
			t.Errorf("InvokeView round trip charged %d payload copies, want 0", d)
		}
	})
}

// TestWireRoundTripScopeEnters pins what one remote lock-step invocation
// costs in scope crossings: a synchronous port is a call on the sender's
// scope stack, so each hop enters only the area below where the sender
// stands. On the client, Transport and MessageProcessing, 2 (the caller has
// no context: its call frame enters the chain from the top in one pinned
// enter); on the server, RequestProcessing 1 (the reader is resident in its
// Transport's scope). The request and the reply are marshalled in the two
// per-request components' own areas — a lone caller always finds room
// there, so nothing overflows into a nested scope — and reviving those
// components enters nothing: they keep their areas, reclaimed in place with
// the header charged again.
func TestWireRoundTripScopeEnters(t *testing.T) {
	invoke, done := newWirePair(t)
	defer done()
	for i := 0; i < 64; i++ {
		invoke()
	}
	enters := telemetry.NewCounter("scope_enter_total")
	overflows := telemetry.NewCounter("scope_overflow_total")
	const ops = 100
	before, spilled := enters.Value(), overflows.Value()
	for i := 0; i < ops; i++ {
		invoke()
	}
	if d := enters.Value() - before; d != 3*ops {
		t.Errorf("%d invocations entered %d scopes, want %d (3 each)", ops, d, 3*ops)
	}
	if d := overflows.Value() - spilled; d != 0 {
		t.Errorf("%d of %d lock-step invocations overflowed their component's area", d, ops)
	}
}

// TestSetupHeapBytes pins what standing an ORB endpoint pair up costs the Go
// heap: a server and a client over the in-process transport, one Invoke, both
// closed. Each endpoint's memory model commits immortal memory only as its
// components allocate it, and each scoped area only as carves need it, so a
// cycle costs what the endpoints hold: under 256 KiB, less than the pair's
// 352 KiB of scoped budgets alone.
func TestSetupHeapBytes(t *testing.T) {
	payload := make([]byte, 256)
	cycle := func() {
		net := transport.NewInproc()
		srv, err := orb.NewServer(orb.ServerConfig{Network: net, Synchronous: true})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.RegisterServant("echo", corba.EchoServant{})
		srv.ServeBackground()
		cl, err := orb.DialClient(orb.ClientConfig{Network: net, Addr: srv.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.Invoke("echo", "echo", payload, sched.NormPriority); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // the first pays for process-wide state: interned labels, pools
	const cycles = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / cycles
	t.Logf("one ORB set-up cycle allocates %d B of Go heap", per)
	if per >= 256<<10 {
		t.Errorf("one ORB set-up cycle allocates %d B of Go heap, want < 256 KiB", per)
	}
}

func BenchmarkAblationCrossScope_SharedObject(b *testing.B) {
	benchMechanism(b, core.MechanismSharedObject)
}
func BenchmarkAblationCrossScope_Serialization(b *testing.B) {
	benchMechanism(b, core.MechanismSerialization)
}
func BenchmarkAblationCrossScope_Handoff(b *testing.B) {
	benchMechanism(b, core.MechanismHandoff)
}

// BenchmarkAblationScopePool compares transient component churn with and
// without pooled scopes (Ablation C).
func BenchmarkAblationScopePool(b *testing.B) {
	for _, variant := range []struct {
		name string
		pool bool
	}{{"FreshScopes", false}, {"ScopePool", true}} {
		b.Run(variant.name, func(b *testing.B) {
			pp, err := experiments.NewPingPong(experiments.PingPongConfig{
				Synchronous: true, Persistent: false, UseScopePool: variant.pool,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer pp.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pp.RoundTrip(int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDispatch compares synchronous and thread-pool port
// dispatch (Ablation D).
func BenchmarkAblationDispatch(b *testing.B) {
	for _, variant := range []struct {
		name string
		sync bool
	}{{"Synchronous", true}, {"ThreadPool", false}} {
		b.Run(variant.name, func(b *testing.B) {
			pp, err := experiments.NewPingPong(experiments.PingPongConfig{
				Synchronous: variant.sync, Persistent: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer pp.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pp.RoundTrip(int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrameworkScopeEnterExit measures the raw cost of entering and
// reclaiming a scoped region.
func BenchmarkFrameworkScopeEnterExit(b *testing.B) {
	model := memory.NewModel(memory.Config{})
	ctx := model.NewNoHeapContext()
	area := model.NewLTScoped("bench", 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.Enter(area, func(c *memory.Context) error {
			_, err := c.Alloc(64)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameworkScopePoolAcquire measures pooled scope turnaround.
func BenchmarkFrameworkScopePoolAcquire(b *testing.B) {
	model := memory.NewModel(memory.Config{})
	pool, err := model.NewScopePool(memory.ScopePoolConfig{Name: "bench", AreaSize: 4096, Count: 2})
	if err != nil {
		b.Fatal(err)
	}
	ctx := model.NewNoHeapContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		area, err := pool.Acquire()
		if err != nil {
			b.Fatal(err)
		}
		if err := ctx.Enter(area, func(c *memory.Context) error {
			_, err := c.Alloc(64)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameworkGIOPMarshal measures the shared codec both ORBs use.
func BenchmarkFrameworkGIOPMarshal(b *testing.B) {
	for _, size := range []int{32, 1024} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			payload := make([]byte, size)
			req := &giop.Request{
				RequestID: 1, ResponseExpected: true,
				ObjectKey: []byte("echo"), Operation: "echo", Payload: payload,
			}
			buf := make([]byte, 0, size+256)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wire := giop.MarshalRequest(buf[:0], giop.BigEndian, req)
				h, err := giop.ParseHeader(wire)
				if err != nil {
					b.Fatal(err)
				}
				if err := giop.DecodeRequest(h.Order, wire[giop.HeaderSize:], new(giop.Request)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrameworkGIOPMarshalPooled is the codec path the ORBs actually
// run at steady state: a pooled scratch buffer, in-place marshal, and a
// decode into a reused struct. Marshalling itself is allocation-free; the
// single residual allocation is the operation-name string materialised by
// the decode.
func BenchmarkFrameworkGIOPMarshalPooled(b *testing.B) {
	for _, size := range []int{32, 1024} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			payload := make([]byte, size)
			req := &giop.Request{
				RequestID: 1, ResponseExpected: true,
				ObjectKey: []byte("echo"), Operation: "echo", Payload: payload,
			}
			// Warm the buffer pool so measured iterations recycle.
			wb := giop.GetBuffer()
			wb.B = giop.MarshalRequest(wb.B, giop.BigEndian, req)
			giop.PutBuffer(wb)
			var into giop.Request
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wb := giop.GetBuffer()
				wire := giop.MarshalRequest(wb.B, giop.BigEndian, req)
				h, err := giop.ParseHeader(wire)
				if err != nil {
					b.Fatal(err)
				}
				if err := giop.DecodeRequest(h.Order, wire[giop.HeaderSize:], &into); err != nil {
					b.Fatal(err)
				}
				wb.B = wire[:0]
				giop.PutBuffer(wb)
			}
		})
	}
}
