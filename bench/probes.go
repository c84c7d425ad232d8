package main

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/ccl"
	"repro/internal/cdl"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/giop"
	"repro/internal/memory"
	"repro/internal/orb"
	"repro/internal/overload"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// A probe times one layer's exported function in isolation, with the inputs
// the workloads use (256-byte payload, key and operation "echo"). Probes are
// the per-layer bill's unit prices; the counts say how many were bought.

// probeBudget bounds one probe's measurement.
type probeBudget struct {
	Each  time.Duration `json:"each_ns"`         // wall budget per probe
	Iters int           `json:"iters,omitempty"` // when > 0: exactly this many operations instead
}

// timeOp returns the median cost of op in ns. Operations run in batches of
// batch between clock reads; the result is the median batch mean.
func (b probeBudget) timeOp(batch int, op func()) float64 {
	for i := 0; i < batch; i++ { // warm caches and lazy paths
		op()
	}
	var samples []float64
	deadline := nowNs() + int64(b.Each)
	for done := 0; ; done += batch {
		if b.Iters > 0 && done >= b.Iters {
			break
		}
		t0 := nowNs()
		if b.Iters == 0 && t0 >= deadline && len(samples) >= 5 {
			break
		}
		for i := 0; i < batch; i++ {
			op()
		}
		samples = append(samples, float64(nowNs()-t0)/float64(batch))
	}
	return float64(summarize(samples).P50)
}

// timeSelf is timeOp for operations that measure themselves (a stamp taken
// on another goroutine): op returns its own duration in ns.
func (b probeBudget) timeSelf(op func() int64) float64 {
	op()
	var samples []float64
	deadline := nowNs() + int64(b.Each)
	for done := 0; ; done++ {
		if b.Iters > 0 && done >= b.Iters {
			break
		}
		if b.Iters == 0 && nowNs() >= deadline && len(samples) >= 5 {
			break
		}
		samples = append(samples, float64(op()))
	}
	return float64(summarize(samples).P50)
}

// slow is the budget for probes whose operation takes tens of microseconds
// or more (parsing, assembling, dialling): fewer, unbatched iterations.
func (b probeBudget) slow() probeBudget {
	if b.Iters > 0 {
		return probeBudget{Iters: max(b.Iters/100, 5)}
	}
	return b
}

// runProbes measures every probe and returns metric name → value. A probe
// that cannot set up is reported in the error and left out of the map.
func runProbes(b probeBudget) (map[string]float64, error) {
	m := map[string]float64{}
	var errs []error
	for _, p := range []func(probeBudget, map[string]float64) error{
		probeHarness, probeFrontEnd, probeORBSetup, probeCore, probeMemory,
		probeSched, probeGIOP, probeTransport, probeOverload, probeTelemetry,
	} {
		if err := p(b, m); err != nil {
			errs = append(errs, err)
		}
	}
	return m, errors.Join(errs...)
}

func probeHarness(b probeBudget, m map[string]float64) error {
	var sink int64
	m["bench.clock_read_ns"] = b.timeOp(probeBatch, func() { sink += nowNs() })
	_ = sink
	return nil
}

func probeFrontEnd(b probeBudget, m map[string]float64) error {
	b = b.slow()
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m["cdl.parse_us"] = b.timeOp(1, func() {
		_, err := cdl.Parse(strings.NewReader(pingpongCDL))
		note(err)
	}) / 1e3
	m["ccl.parse_us"] = b.timeOp(1, func() {
		_, err := ccl.Parse(strings.NewReader(pingpongCCL))
		note(err)
	}) / 1e3
	defs, err := cdl.Parse(strings.NewReader(pingpongCDL))
	if err != nil {
		return err
	}
	doc, err := ccl.Parse(strings.NewReader(pingpongCCL))
	if err != nil {
		return err
	}
	m["compiler.compile_us"] = b.timeOp(1, func() {
		_, err := compiler.Compile(defs, doc)
		note(err)
	}) / 1e3
	plan, err := compiler.Compile(defs, doc)
	if err != nil {
		return err
	}
	var cur *opSpan
	m["compiler.assemble_start_us"] = b.timeSelf(func() int64 {
		reg, err := pingPongRegistry(make(chan int64, 1), &cur)
		if err != nil {
			note(err)
			return 0
		}
		t0 := nowNs()
		app, err := compiler.Assemble(plan, reg)
		if err == nil {
			err = app.Start()
		}
		d := nowNs() - t0
		note(err)
		if app != nil {
			app.Stop()
		}
		return d
	}) / 1e3
	return firstErr
}

func probeORBSetup(b probeBudget, m map[string]float64) error {
	b = b.slow()
	var firstErr error
	net := transport.NewInproc()
	m["orb.server_new_us"] = b.timeSelf(func() int64 {
		t0 := nowNs()
		srv, err := orb.NewServer(orb.ServerConfig{Network: net, ScopePoolCount: 4})
		if err != nil {
			firstErr = err
			return 0
		}
		srv.ServeBackground()
		d := nowNs() - t0
		srv.Close()
		return d
	}) / 1e3
	srv, err := orb.NewServer(orb.ServerConfig{Network: net, ScopePoolCount: 4})
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.ServeBackground()
	m["orb.client_dial_us"] = b.timeSelf(func() int64 {
		t0 := nowNs()
		cl, err := orb.DialClient(orb.ClientConfig{Network: net, Addr: srv.Addr(), ScopePoolCount: 4})
		d := nowNs() - t0
		if err != nil {
			firstErr = err
			return 0
		}
		cl.Close()
		return d
	}) / 1e3
	return firstErr
}

// probeCore times one port hop — GetMessage + Send until the receiving
// handler is entered — on a synchronous port and on a shared thread-pool
// port, in a two-component application built directly on core.
func probeCore(b probeBudget, m map[string]float64) error {
	for _, mode := range []struct {
		metric    string
		threading core.Threading
	}{
		{"core.send_sync_ns", core.ThreadingSynchronous},
		{"core.send_pool_ns", core.ThreadingShared},
	} {
		app, err := core.NewApp(core.AppConfig{Name: "probe", ImmortalSize: 1 << 20})
		if err != nil {
			return err
		}
		entered := make(chan int64, 1)
		var out *core.OutPort
		_, err = app.NewImmortalComponent("Top", func(c *core.Component) error {
			smm := c.SMM()
			var err error
			out, err = core.AddOutPort(c, smm, core.OutPortConfig{Name: "out", Type: myIntegerType, Dests: []string{"Sink.in"}})
			if err != nil {
				return err
			}
			return c.DefineChild(core.ChildDef{
				Name: "Sink", MemorySize: 1 << 15, Persistent: true,
				Setup: func(sink *core.Component) error {
					_, err := core.AddInPort(sink, smm, core.InPortConfig{
						Name: "in", Type: myIntegerType, Threading: mode.threading,
						MinThreads: 1, MaxThreads: 2, BufferSize: 8,
						Handler: core.HandlerFunc(func(*core.Proc, core.Message) error {
							entered <- nowNs()
							return nil
						}),
					})
					return err
				},
			})
		})
		if err == nil {
			err = app.Start()
		}
		if err != nil {
			app.Stop()
			return err
		}
		var sendErr error
		m[mode.metric] = b.timeSelf(func() int64 {
			t0 := nowNs()
			msg, err := out.GetMessage()
			if err == nil {
				err = out.Send(msg, sched.NormPriority)
			}
			if err != nil {
				sendErr = err
				return 0
			}
			return <-entered - t0
		})
		app.Stop()
		if sendErr != nil {
			return sendErr
		}
	}
	return nil
}

func probeMemory(b probeBudget, m map[string]float64) error {
	model := memory.NewModel(memory.Config{})
	noop := func(*memory.Context) error { return nil }
	ctx := model.NewNoHeapContext()
	a1 := model.NewLTScoped("probe.a1", 1<<12)
	a2 := model.NewLTScoped("probe.a2", 1<<12)
	a3 := model.NewLTScoped("probe.a3", 1<<12)
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m["memory.enter_exit_ns"] = b.timeOp(probeBatch, func() { note(ctx.Enter(a1, noop)) })
	chain := []*memory.Area{a1, a2, a3}
	m["memory.enter_chain3_ns"] = b.timeOp(probeBatch, func() { note(ctx.EnterChain(chain, noop)) })
	// ExecuteInArea needs its target on the scope stack: time it from two
	// scopes down, the handoff crossing's position.
	note(ctx.Enter(a1, func(c *memory.Context) error {
		return c.Enter(a2, func(c *memory.Context) error {
			m["memory.execute_in_area_ns"] = b.timeOp(probeBatch, func() { note(c.ExecuteInArea(a1, noop)) })
			return nil
		})
	}))
	pool, err := model.NewScopePool(memory.ScopePoolConfig{Name: "probe.pool", AreaSize: 1 << 12, Count: 4, Grow: true})
	if err != nil {
		return err
	}
	m["memory.scopepool_cycle_ns"] = b.timeOp(probeBatch, func() {
		a, err := pool.Acquire()
		if err != nil {
			note(err)
			return
		}
		note(ctx.Enter(a, noop)) // leaving reclaims the area back into the pool
	})
	return firstErr
}

func probeSched(b probeBudget, m map[string]float64) error {
	pool := sched.NewPool(sched.PoolConfig{Name: "probe", Min: 1, Max: 2})
	defer pool.Shutdown()
	ran := make(chan int64, 1)
	task := func(sched.Priority) { ran <- nowNs() }
	var firstErr error
	m["sched.pool_submit_run_ns"] = b.timeSelf(func() int64 {
		t0 := nowNs()
		if err := pool.Submit(sched.NormPriority, task); err != nil {
			firstErr = err
			return 0
		}
		return <-ran - t0
	})
	q := sched.NewFairQueue(nil)
	for i := uint32(0); i < 8; i++ { // a standing backlog, so Pop has a choice
		q.Push(i, uint8(i%4), sched.NormPriority, 0)
	}
	next := uint32(8)
	m["sched.fairqueue_push_pop_ns"] = b.timeOp(probeBatch, func() {
		q.Push(next, uint8(next%4), sched.NormPriority, 0)
		next++
		q.Pop()
	})
	return firstErr
}

// loopReader replays one encoded frame forever.
type loopReader struct {
	frame []byte
	off   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.frame[l.off:])
	l.off = (l.off + n) % len(l.frame)
	return n, nil
}

func probeGIOP(b probeBudget, m map[string]float64) error {
	payload := seededPayload(1, payloadSize)
	req := giop.Request{
		RequestID: 7, ResponseExpected: true, ObjectKey: []byte("echo"), Operation: "echo",
		Priority: byte(sched.NormPriority), Payload: payload,
	}
	rep := giop.Reply{RequestID: 7, Status: giop.ReplyNoException, Payload: payload}
	buf := make([]byte, 0, 1024)
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m["giop.marshal_request_ns"] = b.timeOp(probeBatch, func() { buf = giop.MarshalRequest(buf[:0], giop.BigEndian, &req) })
	reqWire := giop.MarshalRequest(nil, giop.BigEndian, &req)
	reqBody := reqWire[giop.HeaderSize:]
	var dreq giop.Request
	m["giop.decode_request_ns"] = b.timeOp(probeBatch, func() { note(giop.DecodeRequest(giop.BigEndian, reqBody, &dreq)) })
	m["giop.peek_request_info_ns"] = b.timeOp(probeBatch, func() {
		if _, ok := giop.PeekRequestInfo(giop.BigEndian, reqBody); !ok {
			note(errors.New("PeekRequestInfo rejected a well-formed request"))
		}
	})
	m["giop.marshal_reply_ns"] = b.timeOp(probeBatch, func() { buf = giop.MarshalReply(buf[:0], giop.BigEndian, &rep) })
	repWire := giop.MarshalReply(nil, giop.BigEndian, &rep)
	repBody := repWire[giop.HeaderSize:]
	var drep giop.Reply
	m["giop.decode_reply_ns"] = b.timeOp(probeBatch, func() { note(giop.DecodeReply(giop.BigEndian, repBody, &drep)) })
	fr := giop.NewFrameReader(&loopReader{frame: reqWire}, 4096)
	m["giop.framereader_next_ns"] = b.timeOp(probeBatch, func() {
		_, _, err := fr.Next()
		note(err)
	})
	m["giop.frame_acquire_release_ns"] = b.timeOp(probeBatch, func() { giop.AcquireFrame(len(reqBody)).Release() })
	return firstErr
}

// rawFrame is the size of a 256-byte echo request on the wire, rounded: the
// transport probes move this many bytes each way with no ORB on top.
const rawFrame = 300

func probeTransport(b probeBudget, m map[string]float64) error {
	for _, t := range []struct {
		metric string
		net    transport.Network
		addr   string
	}{
		{"transport.inproc_rtt_ns", transport.NewInproc(), ""},
		{"transport.tcp_rtt_ns", transport.TCP{}, "127.0.0.1:0"},
	} {
		client, stop, err := echoPeer(t.net, t.addr)
		if err != nil {
			return fmt.Errorf("%s: %w", t.metric, err)
		}
		out, in := make([]byte, rawFrame), make([]byte, rawFrame)
		var ioErr error
		m[t.metric] = b.timeOp(8, func() {
			if _, err := client.Write(out); err != nil {
				ioErr = err
				return
			}
			if _, err := io.ReadFull(client, in); err != nil {
				ioErr = err
			}
		})
		stop()
		if ioErr != nil {
			return fmt.Errorf("%s: %w", t.metric, ioErr)
		}
	}

	// Write cost alone: the peer discards whatever arrives.
	client, stop, err := sinkPeer(transport.TCP{}, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer stop()
	frame := make([]byte, rawFrame)
	var ioErr error
	m["transport.tcp_write_ns"] = b.timeOp(8, func() {
		if _, err := client.Write(frame); err != nil {
			ioErr = err
		}
	})
	frames := make([][]byte, 8)
	bufs := make([][]byte, 8)
	for i := range frames {
		frames[i] = frame
	}
	m["transport.tcp_writev8_ns"] = b.timeOp(8, func() {
		copy(bufs, frames) // WriteBuffers consumes the slice it is given
		if _, err := transport.WriteBuffers(client, bufs); err != nil {
			ioErr = err
		}
	})
	return ioErr
}

// echoPeer listens on net, dials it, and echoes rawFrame-sized reads back on
// the accepted side. stop closes both ends and waits for the echo goroutine.
func echoPeer(net transport.Network, addr string) (transport.Conn, func(), error) {
	return peer(net, addr, func(c transport.Conn) {
		buf := make([]byte, rawFrame)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	})
}

// sinkPeer is echoPeer with a peer that only reads.
func sinkPeer(net transport.Network, addr string) (transport.Conn, func(), error) {
	return peer(net, addr, func(c transport.Conn) {
		_, _ = io.Copy(io.Discard, c) // ends when stop closes the connection
	})
}

func peer(net transport.Network, addr string, serve func(transport.Conn)) (transport.Conn, func(), error) {
	ln, err := net.Listen(addr)
	if err != nil {
		return nil, nil, err
	}
	done := make(chan struct{})
	accepted := make(chan transport.Conn, 1)
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
		serve(c)
	}()
	client, err := net.Dial(ln.Addr())
	if err != nil {
		ln.Close()
		<-done
		return nil, nil, err
	}
	server, ok := <-accepted
	if !ok {
		client.Close()
		ln.Close()
		<-done
		return nil, nil, errors.New("peer: accept failed")
	}
	return client, func() {
		client.Close()
		server.Close()
		ln.Close()
		<-done
	}, nil
}

func probeOverload(b probeBudget, m map[string]float64) error {
	ctrl := overload.NewController(overload.Config{})
	defer ctrl.Close()
	var shed bool
	m["overload.admit_done_ns"] = b.timeOp(probeBatch, func() {
		if d := ctrl.Admit(1, overload.Tier1, sched.NormPriority); d.OK {
			ctrl.Done(200)
		} else {
			shed = true
		}
	})
	if shed {
		return errors.New("overload probe: an uncontended Admit was shed")
	}
	return nil
}

func probeTelemetry(b probeBudget, m map[string]float64) error {
	// A private registry: the probe must not move the counters and the ring
	// the traced repetition reads.
	reg := telemetry.NewRegistry(4096)
	c := reg.Counter("probe_total")
	m["telemetry.counter_add_ns"] = b.timeOp(probeBatch, func() { c.Inc() })
	ring := reg.Ring()
	label := telemetry.Label("bench.probe")
	m["telemetry.ring_record_ns"] = b.timeOp(probeBatch, func() { ring.Record(telemetry.EvSpanStart, label, 1, 2, 3) })
	h := reg.Histogram("probe_ns")
	v := int64(0)
	m["telemetry.histogram_record_ns"] = b.timeOp(probeBatch, func() {
		v = (v + 977) % 100000
		h.Record(v)
	})
	return nil
}
