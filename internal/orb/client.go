package orb

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corba"
	"repro/internal/core"
	"repro/internal/giop"
	"repro/internal/memory"
	"repro/internal/overload"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Flight-recorder labels for the client's invocation spans.
var (
	clientSpanLabel  = telemetry.Label("orb.client.invoke")
	clientReplyLabel = telemetry.Label("orb.client.reply")
)

// ClientConfig parameterises a Compadres ORB client.
type ClientConfig struct {
	// Network and Addr locate the server.
	Network transport.Network
	Addr    string
	// Addrs, when non-empty, lists the addresses of a replicated server
	// group and Addr is ignored. The client holds one multiplexed connection
	// per distinct member and balances across them by in-flight load — P2C
	// with a breaker per member — and the invocations a dead member refuses
	// ride the survivors (member.go).
	Addrs []string
	// Resolve, when set, re-resolves the group membership: it is consulted
	// (single-flight, rate-limited) when a member refuses a dial, and the
	// client retargets to its answer. It returns the current member
	// addresses; errors and empty lists leave the previous membership in
	// place. Without it a refused member is never skipped: its breaker is
	// charged instead.
	Resolve func() ([]string, error)
	// MaxMessage bounds a reply body; zero selects DefaultMaxMessage.
	MaxMessage int
	// ScopePoolCount is ignored: MessageProcessing keeps the area it makes
	// when first built (a Reusable shell), so there is no pool to size.
	//
	// Deprecated: kept so that existing configurations compile.
	ScopePoolCount int
	// Synchronous is ignored: the client's component ports are always calls
	// on the invoking goroutine (the paper's pool size 0, §2.2).
	//
	// Deprecated: kept so that existing configurations compile.
	Synchronous bool
	// Resilience opts the client into supervised-connection behaviour:
	// redial with backoff, per-invoke deadlines, retry budgets for
	// idempotent operations, and a circuit breaker. Nil (the default)
	// keeps the original semantics — one dial per member, every error
	// surfaces. The breaker is per member: one dead member opens its own
	// circuit while the others keep serving.
	Resilience *ResilienceConfig
	// Coalesce is ignored: write batching is always on (coalesce.go).
	//
	// Deprecated: kept so that existing configurations compile.
	Coalesce *CoalesceConfig
	// Tenant classifies this client's traffic for server-side overload
	// control: every request carries the id and QoS tier in a GIOP service
	// context (giop.TenantContextID), which a controller-equipped server
	// uses for weighted fair admission and brown-out decisions. The zero
	// Tenant stamps nothing — the wire stays byte-identical to an
	// overload-unaware client.
	Tenant overload.Tenant
	// Collocate opts the client into the direct transport: when a member of
	// the target set is an orb.Server in this process on this same Network
	// (local.go), every invocation runs the server's admit and execute stages
	// inline on the caller's goroutine — no GIOP encode/decode, no connection
	// writer, no connection, no demux. It is the same pipeline a wire request
	// passes through, so server-side policy cannot differ between the two. The
	// collocation decision is re-validated per invoke against the process
	// registry and the client's route generation, so a server swap or a
	// Retarget falls the client back to the wire, never a stale pointer.
	// Contract difference from the wire: a collocated Invoke's reply aliases
	// the slice the servant returned (no marshal copies), so servants must
	// hand out bytes they will not mutate afterwards.
	Collocate bool
}

// DefaultMaxMessage is the default bound on message bodies.
const DefaultMaxMessage = 4096

// clientMsgPoolCapacity is the pool of invocation messages. A caller holds
// one only while it is inside the pipeline — marshalling, or blocked on the
// wire — not while it awaits its reply, so this bounds the callers submitting
// at one instant, not the invocations in flight; one more fails fast with
// core.ErrPoolEmpty.
const clientMsgPoolCapacity = 128

// Client is the component-structured ORB client of Fig. 10 (left): ORB →
// Transport → MessageProcessing. The caller sends each invocation on
// Transport's port into MessageProcessing, a call: it is marshalled,
// registered in its connection's pending table and written on its caller's
// goroutine, and the callers awaiting replies demultiplex the connection
// themselves (mux.go) — one of them at a time reads, matching each reply to
// its entry by request id — so concurrent invokes overlap on one multiplexed
// GIOP connection, complete in any order, and the client owns no thread.
type Client struct {
	app *core.App
	// invoke is Transport's port into MessageProcessing, set once the first
	// wire invocation has instantiated the Transport (see toMP).
	invoke   atomic.Pointer[core.OutPort]
	reqPool  *memory.ScopePool
	nextID   atomic.Uint32
	maxMsg   int
	tenant   overload.Tenant
	closed   atomic.Bool
	network  transport.Network
	res      *resilience // nil unless ClientConfig.Resilience was set
	inflight atomic.Int64
	gauge    *telemetry.GaugeHandle

	// Collocation state (local.go): local caches the detection outcome,
	// routeGen invalidates it on Retarget/membership refresh.
	collocate bool
	local     atomic.Pointer[localBinding]
	routeGen  atomic.Uint64

	// Membership (member.go): members is the copy-on-write slot list, one
	// connection slot per member with its own dial lock and breaker; rng
	// drives the selector's two random choices; resolve is the optional
	// re-resolution hook (guarded by resolveMu with a lastResolve rate limit
	// so a burst of refused dials triggers one directory round trip, not one
	// each); retargetMu serialises Retargets, skips and Close and guards
	// retiring (connections a Retarget took out of service, not yet closed).
	members     atomic.Pointer[[]*member]
	rng         atomic.Uint64
	resolve     func() ([]string, error)
	resolveMu   sync.Mutex
	lastResolve int64
	retargetMu  sync.Mutex
	retiring    map[*muxConn]struct{}

	// transport is the handle that keeps the Transport instance — and with
	// it the invoke port — alive until Close; transportMu serialises its
	// instantiation.
	transportMu sync.Mutex
	transport   *core.Handle
}

// DialClient builds the client component structure and connects it. The
// Transport component dials when it is instantiated — which happens when
// the first invocation goes out on the wire, as §3.2 describes — so the
// network connection is established lazily.
func DialClient(cfg ClientConfig) (*Client, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("orb: nil network")
	}
	maxMsg := cfg.MaxMessage
	if maxMsg == 0 {
		maxMsg = DefaultMaxMessage
	}

	// Area budgets: the Transport holds port structures and pools; each
	// MessageProcessing marshals the requests that pass through it until it
	// next quiesces — one, for a lone caller — as far as they fit.
	mpSize := int64(4*maxMsg + 8192)
	transportSize := int64(8*maxMsg + 32768)

	app, err := core.NewApp(core.AppConfig{Name: "CompadresORBClient", ImmortalSize: 1 << 20, MsgPoolCapacity: clientMsgPoolCapacity})
	if err != nil {
		return nil, err
	}

	// The overflow scopes: a request that finds MessageProcessing's own
	// area full — it is reclaimed only when the component quiesces, which
	// pipelined invokes can put off indefinitely — marshals in one of these,
	// nested under it (the RTZen per-request scope pattern).
	reqPool, err := app.Model().NewScopePool(memory.ScopePoolConfig{
		Name:     "orb.client.request",
		AreaSize: int64(3*maxMsg + 4096),
		Count:    4,
		Grow:     true,
	})
	if err != nil {
		app.Stop()
		return nil, err
	}

	cl := &Client{
		app:       app,
		reqPool:   reqPool,
		maxMsg:    maxMsg,
		tenant:    cfg.Tenant,
		network:   cfg.Network,
		resolve:   cfg.Resolve,
		collocate: cfg.Collocate,
		retiring:  make(map[*muxConn]struct{}),
	}
	if cfg.Resilience != nil {
		cl.res = newResilience(*cfg.Resilience)
	}
	addrs := cfg.Addrs
	if len(addrs) == 0 {
		addrs = []string{cfg.Addr}
	}
	cl.members.Store(&[]*member{})
	cl.Retarget(addrs)
	cl.gauge = telemetry.Default.RegisterGauge("inflight", "orb.client", cl.Inflight)

	_, err = app.NewImmortalComponent("ORB", func(c *core.Component) error {
		return c.DefineChild(core.ChildDef{
			Name:       "Transport",
			MemorySize: transportSize,
			Persistent: true,
			Setup:      cl.transportSetup(mpSize),
		})
	})
	if err == nil {
		err = app.Start()
	}
	if err != nil {
		cl.gauge.Unregister()
		app.Stop()
		return nil, err
	}
	return cl, nil
}

// transportSetup wires one Transport instance: the Out port feeding
// MessageProcessing, on which callers send their invocations, the per-request
// child definition, and the start function that dials every member's
// connection. MessageProcessing's In port is synchronous — the paper's pool
// size 0, "on the calling thread" (§2.2): a caller blocks for its reply
// either way, so a thread pool in front of the wire would buy no concurrency.
func (cl *Client) transportSetup(mpSize int64) func(*core.Component) error {
	return func(tc *core.Component) error {
		tSMM := tc.SMM()
		if _, err := core.AddOutPort(tc, tSMM, core.OutPortConfig{
			Name: "toMP", Type: invokeType, Dests: []string{"MessageProcessing.request"},
		}); err != nil {
			return err
		}
		if err := tc.DefineChild(core.ChildDef{
			Name:       "MessageProcessing",
			MemorySize: mpSize,
			// Setup is pure declaration (one In port on the parent's SMM), so
			// the shell survives quiescence, its own area reclaimed in place.
			Reusable: true,
			Setup: func(mp *core.Component) error {
				_, err := core.AddInPort(mp, tSMM, core.InPortConfig{
					Name: "request", Type: invokeType, Threading: core.ThreadingSynchronous,
					Handler: core.HandlerFunc(cl.processInvoke),
				})
				return err
			},
		}); err != nil {
			return err
		}

		tc.SetStart(func(p *core.Proc) error {
			for _, m := range *cl.members.Load() {
				// Supervised, a refused member is left for the next invoke
				// routed to it to redial (conn charged or skipped it).
				if _, err := m.conn(); err != nil && cl.res == nil {
					return err
				}
			}
			return nil
		})
		return nil
	}
}

// processInvoke runs in the MessageProcessing component's scope, on the
// invoking goroutine, and submits the invocation from a wire buffer carved out
// of that scope — or, when overlapping invocations have filled it, out of a
// pooled scope nested under it (memory.Context.Scratch). It does NOT wait for
// the reply — the caller does that next, in await — so the buffer is dead on
// return (the frame has been written or copied into the connection's batch by
// then) and goes when its scope is reclaimed: memory stays bounded however
// many invocations are in flight.
//
// Completion ownership: an entry that never made it into a pending table is
// still this goroutine's alone and is completed here — with the error that
// stopped it, or, a oneway, with the successful write no reply will follow.
// From the moment register tables it, ONLY the demux or the connection failer
// completes it: a send failure kills the connection, and fail() delivers the
// error to every tabled entry, this one included. Completing here as well
// would race that sweep — if this complete won, the caller could recycle and
// re-arm the entry through the pool while the failer still holds the stale
// pointer, and its late complete would hand the entry's next owner a
// stranger's error.
func (cl *Client) processInvoke(p *core.Proc, msg core.Message) error {
	in := msg.(*invokeMsg)
	tabled := false
	wireCap := giop.HeaderSize + 96 + len(in.keyBuf) + len(in.op) + len(in.payload)
	err := p.Context().Scratch(cl.reqPool, wireCap, func(buf memory.Ref) (err error) {
		tabled, err = cl.submit(buf, in)
		return err
	})
	if tabled {
		return err
	}
	if err == nil && cl.res != nil {
		in.m.brk.Success()
	}
	in.pe.complete(invokeResult{err: err})
	return err
}

// submit marshals one request into buf, registers its pending entry with the
// member's live connection (dialling if none is up, and moving to another
// member if that one is skipped), and writes the frame. tabled reports that
// the entry entered the connection's pending table, whatever happened next.
func (cl *Client) submit(buf memory.Ref, in *invokeMsg) (tabled bool, err error) {
	wireBuf, err := buf.Bytes()
	if err != nil {
		return false, err
	}
	wire := giop.MarshalRequest(wireBuf[:0], giop.BigEndian, &giop.Request{
		RequestID:        in.id,
		ResponseExpected: !in.oneway,
		ObjectKey:        in.keyBuf,
		Operation:        in.op,
		Priority:         byte(in.prio),
		TraceID:          in.trace,
		SpanID:           in.span,
		TenantID:         cl.tenant.ID,
		TenantTier:       uint8(cl.tenant.Tier),
		Payload:          in.payload,
	})

	mc, err := in.m.conn()
	for err == errSkipped {
		if in.m, err = cl.pickMember(); err == nil {
			mc, err = in.m.conn()
		}
	}
	if err != nil {
		return false, err
	}
	if !in.oneway {
		if err := mc.register(in.pe); err != nil {
			return false, err // the connection was already dead
		}
	}
	if err := mc.send(wire, in.oneway); err != nil {
		return !in.oneway, fmt.Errorf("orb client: write: %w", cl.mapWireErr(err))
	}
	return !in.oneway, nil
}

// invokeTimeout returns the per-invoke deadline, zero when unconfigured.
func (cl *Client) invokeTimeout() time.Duration {
	if cl.res == nil {
		return 0
	}
	return cl.res.cfg.InvokeTimeout
}

// mapWireErr folds a deadline expiry into ErrDeadlineExceeded (counting it)
// and passes every other wire error through.
func (cl *Client) mapWireErr(err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		invokeTimeoutTotal.Inc()
		return fmt.Errorf("%w: %v", ErrDeadlineExceeded, err)
	}
	return err
}

// timerPool recycles the deadline timers armed per invoke when an
// InvokeTimeout is configured.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer recycles an armed timer; nil (no deadline configured) is a no-op.
func putTimer(t *time.Timer) {
	if t == nil {
		return
	}
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// awaitUnbound counts callers whose Send returned with their entry neither
// bound to a connection nor completed: the pipeline dropped the message
// without running a handler (a scope that could not be entered, a component
// disposed under the send). Exported at /metrics as
// compadres_await_unbound_total; zero on every path that works.
var awaitUnbound = telemetry.NewCounter("await_unbound_total")

// errUnbound is what such a caller gets instead of a reply nobody will read.
var errUnbound = errors.New("orb client: invocation dropped before it reached a connection")

// call is the client half of the invocation pipeline, the one path every
// entry point takes: closed-check, request id, client span, in-flight count,
// then the transport — direct when the collocation binding names a live
// in-process server, the wire otherwise — and the server's answer mapped to
// the caller's result. A binding found stale (the server shut down between
// detection and dispatch) is dropped and the same call goes out over the wire,
// so a hot swap of a collocated server never loses an invocation; detection
// skips closed servers, so the next call lands on the wire even before the
// registry bump is observed. A non-nil frame means payload aliases an arrival
// buffer: the caller owns one reference and must release it. The results are
// separate values, not an invokeResult, so that the direct transport's stay in
// registers.
func (cl *Client) call(key, op string, payload []byte, prio sched.Priority, oneway bool) (reply []byte, frame *giop.FrameBuf, err error) {
	if cl.closed.Load() {
		return nil, nil, corba.ErrClosed
	}
	id := cl.nextID.Add(1)
	trace, span, started := startSpan(uint64(id))
	cl.inflight.Add(1)
	srv := cl.localServer()
	if srv != nil {
		// The priority crosses as the byte the wire would carry.
		status, out, retryAfter, ok := srv.direct(key, op, payload, byte(prio), cl.tenant, trace, uint64(id), oneway)
		if !ok {
			cl.local.Store(nil)
			srv = nil
		} else {
			collocatedInvokeTotal.Inc()
			if status == giop.ReplyNoException {
				reply = out
			} else {
				err = exception(status, out, retryAfter)
			}
		}
	}
	if srv == nil {
		res := cl.wire(id, key, op, payload, prio, oneway, trace, span)
		reply, frame, err = res.payload, res.frame, res.err
	}
	cl.inflight.Add(-1)
	endSpan(trace, span, started)
	return reply, frame, err
}

// Invoke performs one synchronous request/reply at the given priority. The
// payload is not retained past the call. Under a ResilienceConfig the call
// fails fast with ErrCircuitOpen while the breaker is open; it is never
// retried (use InvokeIdempotent for operations that may safely run twice).
// Concurrent Invokes pipeline over the shared connection and may complete
// in any order.
func (cl *Client) Invoke(key, op string, payload []byte, prio sched.Priority) ([]byte, error) {
	return consumeReply(cl.call(key, op, payload, prio, false))
}

// InvokeView is the zero-copy Invoke: instead of returning a heap copy of
// the reply payload, it runs view on the caller's goroutine with the payload
// as a revocable loan into the arrival frame, then releases the frame. The
// bytes travel socket→view with no intermediate copy. The loan is only valid
// inside view — the release revokes it, and a retained loan answers ErrStale
// afterwards; a view that needs the bytes past its return must escape
// explicitly with Loan.Detach (a counted copy into memory the caller owns).
func (cl *Client) InvokeView(key, op string, payload []byte, prio sched.Priority, view func(reply memory.Loan) error) error {
	reply, frame, err := cl.call(key, op, payload, prio, false)
	if frame == nil {
		// An error, or the direct transport's reply: the servant's own slice,
		// no frame to revoke; lend from a one-shot owner.
		if err == nil && view != nil {
			err = view((&memory.LoanOwner{}).Lend(reply))
		}
		return err
	}
	if view != nil {
		err = view(frame.Lend(reply))
	}
	frame.Release()
	return err
}

// consumeReply turns call's result into the legacy ([]byte, error) shape: a
// payload that aliases an arrival frame is copied out (the copy is counted —
// this is the price of the retained-slice API) and the frame released.
func consumeReply(reply []byte, frame *giop.FrameBuf, err error) ([]byte, error) {
	if frame == nil {
		return reply, err
	}
	var out []byte
	if len(reply) > 0 {
		out = make([]byte, len(reply))
		copy(out, reply)
		payloadCopyTotal.Inc()
		payloadCopyBytes.Add(int64(len(reply)))
	}
	frame.Release()
	return out, err
}

// InvokeIdempotent is Invoke for operations that are safe to execute more
// than once. Under a ResilienceConfig, transport-level failures are retried
// up to MaxRetries times within the retry budget, with capped exponential
// backoff between attempts; each retry uses a fresh request id, and stale
// replies to abandoned attempts are dropped by the demux. Without
// resilience it behaves exactly like Invoke.
func (cl *Client) InvokeIdempotent(key, op string, payload []byte, prio sched.Priority) ([]byte, error) {
	return cl.withRetry(func() ([]byte, error) {
		return consumeReply(cl.call(key, op, payload, prio, false))
	})
}

// InvokeOneway sends a request without waiting for a reply; what the servant
// made of it — or whether the server admitted it at all — is not reported, on
// either transport. Oneways are idempotent from the transport's point of view
// (no reply is matched), so under a ResilienceConfig transport failures are
// retried within the retry budget like InvokeIdempotent. Over the wire the
// call returns once the transport has taken the frame: buffered, as on any
// socket, not yet read by the server. A Close that follows does not lose it
// — the closing end's bytes drain before the server sees the end of the
// stream.
func (cl *Client) InvokeOneway(key, op string, payload []byte, prio sched.Priority) error {
	_, err := cl.withRetry(func() ([]byte, error) {
		return consumeReply(cl.call(key, op, payload, prio, true))
	})
	return err
}

// yieldEvery is how many invocations apart a client's callers give the
// scheduler one pass, starting with its first. Over the in-process transport
// every hop of a lone caller's round trip readies the next goroutine directly,
// and Go runs a readied goroutine next, inside the current time slice and ahead
// of the run queue: on one processor a closed-loop caller that starts alone can
// keep goroutines that have not begun waiting for as long as it goes on (16
// callers of 4,000 invocations each ran one after the other in four runs out
// of ten; of four loops of dial, invoke, close, two never finished a cycle).
// The pass is taken inside the invocation, so whoever it lets in finds the
// connection shared and batches; with nobody waiting it costs about 5 ns an
// invocation.
const yieldEvery = 32

// wire is the wire transport: pick a member, then one pass through the
// component pipeline — arm a pending entry, send the invocation into
// MessageProcessing, which carries it to the member's connection on this
// goroutine, and wait for the demux (or a failure path) to complete it. The
// send is a call whose frame enters Transport and MessageProcessing in one
// pinned enter.
func (cl *Client) wire(id uint32, key, op string, payload []byte, prio sched.Priority, oneway bool, trace, span uint64) invokeResult {
	m, err := cl.pickMember()
	if err != nil {
		return invokeResult{err: err}
	}
	out, err := cl.toMP()
	if err != nil {
		return invokeResult{err: err}
	}
	msg, err := out.GetMessage()
	if err != nil {
		return invokeResult{err: err}
	}
	in := msg.(*invokeMsg)
	in.id = id
	in.keyBuf = append(in.keyBuf[:0], key...)
	in.op, in.payload, in.prio = op, payload, prio
	in.oneway = oneway
	in.m = m
	pe := getPending(id)
	in.pe = pe
	// The trace context rides the pooled message, which is recycled once its
	// handler returns.
	in.trace, in.span = trace, span
	if id%yieldEvery == 1 {
		runtime.Gosched()
	}
	if err := out.Send(msg, prio); err != nil {
		// A send to a synchronous port fails only before the handler is
		// called: the entry never left this goroutine.
		putPending(pe)
		return invokeResult{err: err}
	}
	return cl.await(pe)
}

// toMP returns the invoke port, instantiating the Transport on the first call
// — its start function dials — and again after a start that failed.
func (cl *Client) toMP() (*core.OutPort, error) {
	if out := cl.invoke.Load(); out != nil {
		return out, nil
	}
	cl.transportMu.Lock()
	defer cl.transportMu.Unlock()
	if out := cl.invoke.Load(); out != nil {
		return out, nil
	}
	h, err := cl.app.Component("ORB").SMM().Connect("Transport")
	if err != nil {
		return nil, err
	}
	out, err := h.Component().SMM().GetOutPort("Transport.toMP")
	if err != nil {
		h.Disconnect()
		return nil, err
	}
	cl.transport = h
	cl.invoke.Store(out)
	return out, nil
}

// await blocks until the entry completes or the per-invoke deadline expires.
// Send carried the invocation to register (or to a completion) on this very
// goroutine, so a bound entry's caller volunteers for its connection's leader
// token: the one that wins it reads frames off the wire itself (mux.lead),
// completing other callers' entries until its own reply arrives — the reply
// that matters to this caller never crosses a goroutine boundary — while the
// followers wake from their channel.
func (cl *Client) await(pe *muxPending) invokeResult {
	mc := pe.mc
	if mc == nil {
		if pe.state.Load() == pendingArmed {
			// Nobody else holds the entry and nobody would read its reply.
			awaitUnbound.Inc()
			putPending(pe)
			return invokeResult{err: errUnbound}
		}
		return pe.result() // a oneway's write, or an error on the way to one
	}
	timeout := cl.invokeTimeout()
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	// Fast path: a parked token means no reader is active on the connection.
	// Take it with one non-blocking channel op — no timer armed — and demux
	// our own reply.
	select {
	case <-mc.leaderCh:
		return mc.lead(pe, deadline)
	default:
	}
	var t *time.Timer
	var expired <-chan time.Time
	if timeout > 0 {
		t = getTimer(timeout)
		expired = t.C
	}
	select {
	case res := <-pe.done:
		putTimer(t)
		putPending(pe)
		return res
	case <-mc.leaderCh:
		putTimer(t) // lead bounds its reads with the conn deadline instead
		return mc.lead(pe, deadline)
	case <-expired:
		timerPool.Put(t) // fired: already drained
		return cl.expire(pe)
	}
}

// expire resolves an entry whose invoke deadline passed — the one
// deadline-expiry path of followers and a leader alike. The entry is cancelled
// and unhooked from its pending table: the connection stays up — the demux
// simply drops the stale reply when (if) it arrives — so one slow invocation
// does not tear down the pipeline for everyone sharing it. Because a leader
// that already took the entry off the table, or the connection failer sweeping
// it, may still hold the pointer, a cancelled entry is abandoned to the
// collector, never recycled.
func (cl *Client) expire(pe *muxPending) invokeResult {
	if !pe.state.CompareAndSwap(pendingArmed, pendingCancelled) {
		// Lost the race: a completion is already committed. Take it.
		return pe.result()
	}
	pe.mc.take(pe.id, pe)
	invokeTimeoutTotal.Inc()
	return invokeResult{err: fmt.Errorf("%w: no reply within %v", ErrDeadlineExceeded, cl.invokeTimeout())}
}

// withRetry runs op and, when resilience is enabled, retries retriable
// failures within the retry budget. Breaker gating happens inside op —
// member selection (pickMember) fails fast with ErrCircuitOpen when no
// member admits traffic, and ErrCircuitOpen is retriable, so a later
// attempt can ride a half-open probe.
func (cl *Client) withRetry(op func() ([]byte, error)) ([]byte, error) {
	r := cl.res
	if r == nil {
		return op()
	}
	for attempt := 0; ; attempt++ {
		out, err := op()
		if err == nil {
			r.budget.Earn()
			r.resetDelay()
			return out, nil
		}
		if cl.closed.Load() || attempt >= r.cfg.MaxRetries || !retriable(err) || !r.budget.Take() {
			return nil, err
		}
		retryTotal.Inc()
		delay := r.nextDelay()
		// A shed reply carries the server's back-off hint: honour it when it
		// exceeds the local backoff, so retry pressure scales down with the
		// server's brown-out level instead of hammering a recovering peer.
		var shed *ShedError
		if errors.As(err, &shed) && shed.RetryAfter > delay {
			delay = shed.RetryAfter
		}
		time.Sleep(delay)
	}
}

// startSpan opens a client invocation span in the flight recorder when
// verbose telemetry is on; it returns zero ids (meaning untraced)
// otherwise. The trace id rides the wire, so gating here also switches the
// server's per-request span off in one place.
func startSpan(correlator uint64) (trace, span uint64, started int64) {
	if !telemetry.VerboseEnabled() {
		return 0, 0, 0
	}
	trace, span = telemetry.NewID(), telemetry.NewID()
	telemetry.Record(telemetry.EvSpanStart, clientSpanLabel, trace, span, correlator)
	return trace, span, telemetry.Now()
}

// endSpan closes a span opened by startSpan; arg is the span duration in
// nanoseconds.
func endSpan(trace, span uint64, started int64) {
	if trace == 0 {
		return
	}
	telemetry.Record(telemetry.EvSpanEnd, clientSpanLabel, trace, span, uint64(telemetry.Now()-started))
}

// Inflight reports the number of invocations in progress on either transport
// (also exported as the `inflight` gauge).
func (cl *Client) Inflight() int64 { return cl.inflight.Load() }

// App exposes the underlying component application (for tests and the bench
// harness).
func (cl *Client) App() *core.App { return cl.app }

// Close shuts the client down: every connection is closed — each member's
// and each one a Retarget is still retiring — failing any in-flight
// invocations with ErrClosed, and the component application stopped.
func (cl *Client) Close() {
	if cl.closed.Swap(true) {
		return
	}
	closed := fmt.Errorf("orb client: %w", corba.ErrClosed)
	for _, m := range *cl.members.Load() {
		if mc := m.cur.Load(); mc != nil {
			mc.fail(closed)
		}
	}
	cl.retargetMu.Lock()
	for mc := range cl.retiring {
		mc.fail(closed)
	}
	cl.retargetMu.Unlock()
	cl.gauge.Unregister()
	cl.app.Stop()
}
