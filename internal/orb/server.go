package orb

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
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

// serverSpanLabel marks the server-side request-processing span.
var serverSpanLabel = telemetry.Label("orb.server.request")

// ServerConfig parameterises a Compadres ORB server.
type ServerConfig struct {
	// Network and Addr select where to listen.
	Network transport.Network
	Addr    string
	// ScopePoolCount is ignored: each connection's RequestProcessing keeps
	// the area it makes when first built, so there is no pool to size.
	//
	// Deprecated: kept so that existing configurations compile.
	ScopePoolCount int
	// Synchronous dispatches ports on the reading thread instead of port
	// thread pools.
	Synchronous bool
	// Concurrency bounds how many requests one connection processes at
	// once (the RequestProcessing pool width). Pipelined clients keep that
	// many servant invocations in flight; replies go out in completion
	// order, not arrival order. Zero selects DefaultConcurrency.
	Concurrency int
	// Coalesce is ignored: write batching is always on (coalesce.go).
	//
	// Deprecated: kept so that existing configurations compile.
	Coalesce *CoalesceConfig
	// Overload opts the server into closed-loop overload control (see
	// internal/overload): every request is classified by its tenant service
	// context and admitted, credited, or shed before demarshalling; admitted
	// requests queue in their tenant's lane of the request port (DRR across
	// tenant classes within each priority band, FIFO within a lane) and
	// their completion latency drives the AIMD in-flight limit and the
	// brown-out ladder. Nil (the default) dispatches every request
	// uncontrolled.
	Overload *overload.Controller
	// RequestDeadline, with Overload set, gives every admitted request a
	// queueing deadline relative to its arrival: a request that comes up for
	// execution past it is shed unrun (counted as deadline_shed_total,
	// answered with a shed reply), whichever transport carried it. Zero
	// sets no deadline.
	RequestDeadline time.Duration
}

// DefaultConcurrency is the per-connection request-processing width used
// when ServerConfig.Concurrency is zero. It is sized so the default
// message-pool capacity comfortably covers queued plus in-process requests.
const DefaultConcurrency = 8

// Server is the component-structured ORB server of Fig. 10 (right):
// ORB → POA/Acceptor → per-connection Transport → per-request
// RequestProcessing.
type Server struct {
	app *core.App
	poa *core.Component
	ln  transport.Listener
	net transport.Network // the listen network, for the collocation registry

	// servants is the copy-on-write servant table (see servantTable):
	// lookups, per request, read it through one atomic load; registration
	// swaps in an edited copy under mu.
	servants atomic.Pointer[servantTable]

	// locateFwd, when set, answers Locate probes for keys with no local
	// servant: a non-empty address list becomes a LocateObjectForward reply.
	// This is how a group directory redirects clients to live replicas.
	locateFwd atomic.Pointer[func(key []byte) []string]

	// inflight counts dispatched-but-not-recycled requests across every
	// connection; quiet is notified when it reaches zero.
	inflight atomic.Int64
	quiet    sched.Signal

	// conns holds every connection with a running reader loop; poaPin keeps
	// the POA instantiated for the server's lifetime. freeSlots holds retired
	// Transports' names for reuse (a name interns telemetry labels for good);
	// connSeq counts those minted, the peak of concurrent connections.
	mu        sync.Mutex
	conns     map[*serverConn]struct{}
	freeSlots []string
	poaPin    *core.Handle
	connSeq   atomic.Uint64
	closed    atomic.Bool
	wg        sync.WaitGroup

	threading   core.Threading
	repPool     *memory.ScopePool
	concurrency int

	// ctrl is the overload controller (nil = uncontrolled); reqDeadline the
	// queueing deadline of admitted requests when ctrl is set.
	ctrl        *overload.Controller
	reqDeadline time.Duration
}

// serverConn is the per-connection state owned by a Transport instance: name
// is the connection's Transport child of the POA, toRP that Transport's port
// into RequestProcessing, inflight its dispatched-but-not-recycled requests.
type serverConn struct {
	srv      *Server
	conn     transport.Conn
	w        *connWriter
	name     string
	toRP     *core.OutPort
	inflight atomic.Int64
}

// write hands one framed message to the connection's writer. With no other
// request in flight on this connection (a batch merges one connection's
// frames) it is written directly; otherwise it is batched with the replies
// completing around it and returns before it is on the wire. inline (Locate
// replies) waits for its own write. The one caller that hits a write error
// records the fault and closes the connection, ending its reader loop.
func (sc *serverConn) write(b []byte, inline bool) error {
	err, owner := sc.w.write(b, modeFor(inline, sc.inflight.Load()))
	if owner {
		if !cleanClose(err) {
			telemetry.RecordFault("orb.server.write", wireErr("write", sc.srv.ln.Addr(), err))
		}
		sc.conn.Close()
	}
	return err
}

// NewServer builds the server component structure and binds the listener.
// Call Serve (or ServeBackground) to start accepting.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("orb: nil network")
	}
	concurrency := cfg.Concurrency
	if concurrency <= 0 {
		concurrency = DefaultConcurrency
	}

	appCfg := core.AppConfig{Name: "CompadresORBServer", ImmortalSize: 1 << 20}
	if need := 3*concurrency + 8; need > core.DefaultMsgPoolCapacity {
		// A connection can hold queue (2×concurrency) plus in-process
		// (concurrency) requests outstanding; the message pool must cover
		// that or the reader loop sheds connections under pipelined load.
		appCfg.MsgPoolCapacity = need
	}
	app, err := core.NewApp(appCfg)
	if err != nil {
		return nil, err
	}

	// The overflow scopes: a reply that finds RequestProcessing's own area
	// full — it is reclaimed only when the component quiesces, which
	// overlapping requests can put off indefinitely — is marshalled in one
	// of these, nested under it.
	repPool, err := app.Model().NewScopePool(memory.ScopePoolConfig{
		Name:     "orb.server.reply",
		AreaSize: 2*giop.DefaultMaxMessage + 4096,
		Count:    4,
		Grow:     true,
	})
	if err != nil {
		app.Stop()
		return nil, err
	}

	srv := &Server{
		app:         app,
		conns:       make(map[*serverConn]struct{}),
		threading:   core.ThreadingShared,
		repPool:     repPool,
		concurrency: concurrency,
		ctrl:        cfg.Overload,
		reqDeadline: cfg.RequestDeadline,
	}
	if cfg.Synchronous {
		srv.threading = core.ThreadingSynchronous
	}
	ln, err := cfg.Network.Listen(cfg.Addr)
	if err != nil {
		app.Stop()
		return nil, err
	}
	srv.ln = ln

	_, err = app.NewImmortalComponent("ORB", func(c *core.Component) error {
		return c.DefineChild(core.ChildDef{
			Name:       "POA",
			MemorySize: 1 << 16,
			Persistent: true,
			Setup: func(poa *core.Component) error {
				srv.poa = poa
				return nil
			},
		})
	})
	if err == nil {
		err = app.Start()
	}
	if err == nil {
		// Instantiate the POA/Acceptor (level-2 scope in the paper's
		// counting) and keep it pinned for the server's lifetime.
		srv.poaPin, err = app.Component("ORB").SMM().Connect("POA")
	}
	if err != nil {
		ln.Close()
		app.Stop()
		return nil, err
	}
	// Publish the endpoint to the process-local collocation registry
	// (local.go): a Collocate-enabled client in this process dialling this
	// network+address invokes servants directly.
	srv.net = cfg.Network
	registerLocal(srv.net, ln.Addr(), srv)
	return srv, nil
}

// servantEntry is one key's binding: the servant with its PrioritizedServant
// view (nil if none), asserted once here, not per call — or the retiring mark
// a drain leaves, which sheds stragglers with a retry-after hint (their
// directory re-routes them) instead of the terminal ErrNoServant.
type servantEntry struct {
	key      string
	sv       corba.Servant
	ps       corba.PrioritizedServant
	retiring bool
}

// servantTable is an immutable snapshot of the bindings. newest, the entry its
// edit bound, is tried before the map: one servant resolves with one compare,
// and a memo inside the snapshot cannot disagree with the map.
type servantTable struct {
	m      map[string]*servantEntry
	newest *servantEntry
}

// resolve returns key's entry, live or retiring, or nil if it was never bound.
// Neither wire bytes nor a direct caller's string is converted on the heap.
func resolve[K string | []byte](p *atomic.Pointer[servantTable], key K) *servantEntry {
	t := p.Load()
	if t == nil {
		return nil
	}
	if string(key) == t.newest.key {
		return t.newest
	}
	return t.m[string(key)]
}

// bind publishes a copy of the servant table with e as its newest entry.
func (s *Server) bind(e *servantEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := map[string]*servantEntry{}
	if t := s.servants.Load(); t != nil {
		m = maps.Clone(t.m)
	}
	m[e.key] = e
	s.servants.Store(&servantTable{m: m, newest: e})
}

// RegisterServant binds a servant to an object key.
func (s *Server) RegisterServant(key string, sv corba.Servant) {
	ps, _ := sv.(corba.PrioritizedServant)
	s.bind(&servantEntry{key: key, sv: sv, ps: ps})
}

// UnregisterServant unbinds a servant and marks its key retiring: requests
// already queued (or racing the unbind) are answered with a retry-after
// shed reply instead of ErrNoServant, so a draining replica's stragglers
// re-route through their directory rather than surfacing errors. Pair with
// Drain to wait out the in-flight tail.
func (s *Server) UnregisterServant(key string) {
	s.bind(&servantEntry{key: key, retiring: true})
}

// Inflight returns the dispatched-but-not-completed request count.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// settled counts one dispatched request complete.
func (s *Server) settled() {
	if s.inflight.Add(-1) == 0 {
		s.quiet.Notify()
	}
}

// Drain waits — bounded by timeout, zero selecting one second — for every
// dispatched request to complete: queued, in-servant, and writing-reply
// work all count. It does not stop the listener or refuse new requests;
// the caller removes the server from its directory (and unregisters
// retiring servants) first, so the tail it waits on is finite. A request
// still in a connection's buffer — written by its client, not yet read here
// — is not dispatched and is not waited for, on TCP and in-process alike:
// the caller's settle delay is what lets those arrive, and one cut off by a
// Close that follows fails at its client as a transport error. A reply this
// server has written is the transport's to deliver: Close lets the peer read
// what is buffered before it sees the end of the stream.
func (s *Server) Drain(timeout time.Duration) error {
	if timeout == 0 {
		timeout = time.Second
	}
	if !s.quiet.Wait(func() bool { return s.inflight.Load() == 0 }, time.Now().Add(timeout)) {
		return fmt.Errorf("orb server: drain: %d requests still in flight after %v",
			s.inflight.Load(), timeout)
	}
	return nil
}

// SetLocateForwarder installs fn, consulted by the Locate path when no local
// servant matches the probed key: a non-empty return becomes a
// LocateObjectForward reply carrying those addresses (the forwarding
// references of §Cluster). fn runs on connection reader threads and must be
// safe for concurrent use; the key slice is only valid for the call.
func (s *Server) SetLocateForwarder(fn func(key []byte) []string) {
	s.locateFwd.Store(&fn)
}

// locateStatus answers one Locate probe: a local servant is OBJECT_HERE, a
// forwarder hit is OBJECT_FORWARD with the group's addresses, anything else
// UNKNOWN_OBJECT.
func (s *Server) locateStatus(key []byte) (giop.LocateStatus, []string) {
	if e := resolve(&s.servants, key); e != nil && !e.retiring {
		return giop.LocateObjectHere, nil
	}
	if p := s.locateFwd.Load(); p != nil {
		if addrs := (*p)(key); len(addrs) > 0 {
			return giop.LocateObjectForward, addrs
		}
	}
	return giop.LocateUnknownObject, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr() }

// App exposes the underlying component application.
func (s *Server) App() *core.App { return s.app }

// ServeBackground starts the accept loop on its own goroutine — the
// POA/Acceptor component "listens to and waits for client request
// messages".
func (s *Server) ServeBackground() {
	s.wg.Add(1)
	go s.acceptLoop()
}

// wireErr normalises a raw transport failure into a *transport.OpError so
// errors.Is(err, transport.ErrClosed) and errors.As with *transport.OpError
// behave uniformly whichever network produced it; errors already wrapped
// pass through unchanged.
func wireErr(op, addr string, err error) error {
	var oe *transport.OpError
	if errors.As(err, &oe) {
		return err
	}
	return &transport.OpError{Op: op, Addr: addr, Err: err}
}

// cleanClose reports whether err is routine connection/listener teardown
// rather than an abrupt failure worth a fault record.
func cleanClose(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, transport.ErrClosed)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			// A closed listener is normal shutdown; anything else is a
			// fault worth recording before the loop exits.
			if !cleanClose(err) && !s.closed.Load() {
				telemetry.RecordFault("orb.server.accept", wireErr("accept", s.ln.Addr(), err))
			}
			return
		}
		if s.closed.Load() {
			conn.Close()
			return
		}
		if err := s.addConnection(conn); err != nil {
			conn.Close()
		}
	}
}

// addConnection builds the per-connection Transport component (a scoped
// child of the POA), pins it open for the connection's lifetime and starts
// the connection's reader, which retires it on the way out. The reader is
// resident in its Transport's scope (the paper's Fig. 10): it stands in
// RequestProcessing's parent, so relaying a request into a synchronous port
// enters one area, not the chain from the POA down.
func (s *Server) addConnection(conn transport.Conn) error {
	sc := &serverConn{srv: s, conn: conn, w: newConnWriter(conn, nil)}
	s.mu.Lock()
	if n := len(s.freeSlots); n > 0 {
		sc.name, s.freeSlots = s.freeSlots[n-1], s.freeSlots[:n-1]
	} else {
		sc.name = fmt.Sprintf("Transport%d", s.connSeq.Add(1))
	}
	s.mu.Unlock()
	if err := s.poa.DefineChild(core.ChildDef{
		Name:       sc.name,
		MemorySize: 8*giop.DefaultMaxMessage + 32768,
		Persistent: true,
		Setup:      s.transportSetup(sc),
	}); err != nil {
		return err
	}
	pin, err := s.poa.SMM().Connect(sc.name)
	if err != nil {
		s.freeSlot(sc.name)
		return err
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		pin.Disconnect()
		return transport.ErrClosed
	}
	s.conns[sc] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		tc := pin.Component()
		if err := tc.Exec(func(ctx *memory.Context) error {
			s.readLoop(sc, core.NewProc(tc, tc.SMM(), ctx, sched.NormPriority))
			return nil
		}); err != nil {
			sc.conn.Close()
		}
		s.retire(sc, pin)
	}()
	return nil
}

// freeSlot forgets a gone Transport's blueprint and frees its name for reuse.
func (s *Server) freeSlot(name string) {
	s.poa.UndefineChild(name)
	s.mu.Lock()
	s.freeSlots = append(s.freeSlots, name)
	s.mu.Unlock()
}

// retire lets a connection go once its reader loop has exited: the server
// forgets it, and its Transport — scope, request port and pool, gauges — is
// reclaimed with the blueprint it was built from. The reader waits for the
// requests it dispatched to recycle first, so that it, not a worker of the
// Transport's own pool, is the one that reclaims the instance.
func (s *Server) retire(sc *serverConn, pin *core.Handle) {
	s.mu.Lock()
	delete(s.conns, sc)
	s.mu.Unlock()
	pin.AwaitIdle(time.Time{})
	pin.Disconnect()
	s.freeSlot(sc.name)
}

// transportSetup wires one Transport instance: the Out port feeding its
// RequestProcessing child, and that child.
func (s *Server) transportSetup(sc *serverConn) func(*core.Component) error {
	return func(tc *core.Component) error {
		tSMM := tc.SMM()
		toRP, err := core.AddOutPort(tc, tSMM, core.OutPortConfig{
			Name: "toRP", Type: requestType, Dests: []string{"RequestProcessing.request"},
		})
		if err != nil {
			return err
		}
		if err := tc.DefineChild(core.ChildDef{
			Name:       "RequestProcessing",
			MemorySize: 4*giop.DefaultMaxMessage + 8192,
			// Pure-declaration Setup: the shell is revived across requests,
			// its area created when first built and reclaimed in place.
			Reusable: true,
			Setup: func(rp *core.Component) error {
				// Concurrency pool workers dispatch requests side by side;
				// the bounded buffer plus OverflowBlock turns "queue full"
				// into the reader loop parking, which in turn stops reading
				// the socket — wire-level backpressure instead of a dropped
				// connection when a pipelined client runs ahead of the
				// servants. Requests queue in their tenant's lane
				// (requestMsg.TenantClass): DRR across the lanes within
				// each priority band, FIFO within a lane.
				_, err := core.AddInPort(rp, tSMM, core.InPortConfig{
					Name: "request", Type: requestType, Threading: s.threading,
					MinThreads: 1, MaxThreads: s.concurrency,
					BufferSize: 2 * s.concurrency,
					Overflow:   core.OverflowBlock,
					Handler:    core.HandlerFunc(s.processRequest),
				})
				return err
			},
		}); err != nil {
			return err
		}
		sc.toRP = toRP
		return nil
	}
}

// readLoop frames inbound GIOP messages and relays each into the
// RequestProcessing scope through the component port. Frames arrive as
// views of the reader's pooled slabs (giop.FrameReader) and the
// request bytes are never copied again: the dispatched message's raw slice
// aliases the frame, and the frame is released when the pooled
// message is recycled after its handler returns. Requests dispatch
// concurrently (up to the configured Concurrency) and each reply goes to the
// connection's writer as its servant finishes — out of order when
// completions cross — while the demultiplexing client matches them back to
// callers by request id.
func (s *Server) readLoop(sc *serverConn, proc *core.Proc) {
	fr := giop.NewFrameReader(sc.conn, giop.DefaultMaxMessage)
	defer fr.Close()
	for {
		h, fb, err := fr.NextFrame()
		if err != nil {
			// EOF and closed-pipe are normal teardown; anything else —
			// a peer vanishing mid-frame, a short read, an over-limit
			// frame — is an abrupt failure worth a fault record. Either
			// way the connection is done.
			if !cleanClose(err) {
				telemetry.RecordFault("orb.server.read", wireErr("read", s.ln.Addr(), err))
			}
			sc.conn.Close()
			return
		}
		switch h.Type {
		case giop.MsgRequest:
			if !s.dispatch(sc, sc.toRP, proc, h, fb) {
				sc.conn.Close()
				return
			}
		case giop.MsgLocateRequest:
			// Locate is a transport-level probe; answer on the reader
			// thread without entering the component structure.
			var req giop.LocateRequest
			if err := giop.DecodeLocateRequest(h.Order, fb.Body(), &req); err != nil {
				fb.Release()
				sc.conn.Close()
				return
			}
			status, fwd := s.locateStatus(req.ObjectKey)
			fb.Release() // req.ObjectKey is dead past this point
			wb := giop.GetBuffer()
			wb.B = giop.MarshalLocateReply(wb.B, h.Order, &giop.LocateReply{
				RequestID: req.RequestID, Status: status, Forward: fwd,
			})
			err := sc.write(wb.B, true)
			giop.PutBuffer(wb)
			if err != nil {
				sc.conn.Close()
				return
			}
		case giop.MsgCloseConnection:
			fb.Release()
			sc.conn.Close()
			return
		default:
			// Ignore other message types.
			fb.Release()
		}
	}
}

// admission is one request's pass through the admit stage: the priority it
// queues at and, under overload control, the in-flight slot it holds. The
// slot is released exactly once — done (a completion, timed if the
// controller sampled it) or drop (not one) — by whichever stage settles the
// request; both are no-ops afterwards, so an unwind may always call drop.
type admission struct {
	prio    sched.Priority
	class   uint8 // fair-queue lane
	sampled bool  // the controller timed it: done reports a latency
	at      int64 // arrival stamp (Decision.At, or the deadline's own); 0 = none
	ctrl    *overload.Controller
}

// done releases the slot as a completion, a sampled one with admission-to-now
// as the latency sample that drives the AIMD limit.
func (a *admission) done() {
	if a.ctrl != nil && a.sampled {
		a.ctrl.Done(telemetry.Now() - a.at)
	} else if a.ctrl != nil {
		a.ctrl.Completed()
	}
	a.ctrl = nil
}

// drop releases the slot of a request that never ran to completion.
func (a *admission) drop() {
	if a.ctrl != nil {
		a.ctrl.Dropped()
		a.ctrl = nil
	}
}

// Fixed exception bodies.
var (
	shedReplyPayload = []byte("orb: overload: request shed")
	noServantPayload = []byte(corba.ErrNoServant.Error())
)

// retireRetryAfterNs is the back-off hinted to stragglers addressing a
// retiring servant on a server without an overload controller: long enough
// for a rolling upgrade's directory update to land, short enough not to
// stall the caller.
const retireRetryAfterNs = int64(20 * time.Millisecond)

// shed is the answer to a request the server refuses to run — rejected at
// admission, expired in the queue, or addressed to a retiring servant: a
// system exception whose positive retry-after hint (ns) marks it as a shed.
// The hint is the controller's level-scaled window when one is running, the
// retirement default otherwise.
func (s *Server) shed() (status giop.ReplyStatus, payload []byte, retryAfter int64) {
	retryAfter = retireRetryAfterNs
	if s.ctrl != nil {
		retryAfter = int64(s.ctrl.RetryAfter())
	}
	return giop.ReplySystemException, shedReplyPayload, retryAfter
}

// admit is the admission stage every request passes, whichever transport
// carried it. The priority byte is validated — an out-of-band value queues at
// NormPriority, though the servant is still shown the byte as sent — and under
// overload control the controller classifies the tenant and admits or sheds.
// ok false means shed: answer with s.shed(), nothing is held.
func (s *Server) admit(rawPrio byte, tenantID uint64, tier uint8) (ad admission, ok bool) {
	ad.prio = sched.NormPriority
	if cand := sched.Priority(rawPrio); cand.Valid() {
		ad.prio = cand
	}
	if s.ctrl != nil {
		d := s.ctrl.Admit(tenantID, overload.Tier(tier), ad.prio)
		if !d.OK {
			return ad, false
		}
		ad.class, ad.at, ad.sampled, ad.ctrl = d.Class, d.At, d.At != 0, s.ctrl
		if !ad.sampled && s.reqDeadline > 0 {
			// The deadline runs from arrival, timed or not.
			ad.at = telemetry.Now()
		}
	}
	return ad, true
}

// execute is the execution stage of an admitted request, on whichever
// goroutine the transport runs it: a RequestProcessing port thread for the
// wire, the caller's own for the direct transport. It is the one place the
// queueing deadline (kept only under a controller) is: work that outlived it
// is shed, reported through telemetry.ReportDeadlineShed and settled as the
// controller's Expired, on every transport alike. It opens the server span
// under the caller's trace (corr is the wire's request id, the direct
// transport's client span id), resolves the servant, shedding a retiring key,
// runs it, and settles ad's slot exactly once. The answer is the (status,
// payload, retryAfter) triple a GIOP reply carries on the wire and the direct
// transport hands over as it is; span is the server span id, zero if untraced.
func execute[K string | []byte](s *Server, ad *admission, key K, op string, payload []byte, rawPrio byte, trace, corr uint64) (status giop.ReplyStatus, out []byte, retryAfter int64, span uint64) {
	var started int64
	if trace != 0 && telemetry.VerboseEnabled() {
		span = telemetry.NewID()
		telemetry.Record(telemetry.EvSpanStart, serverSpanLabel, trace, span, corr)
		started = telemetry.Now()
	}
	if deadline := ad.at + int64(s.reqDeadline); ad.at != 0 && s.reqDeadline > 0 && telemetry.Now() > deadline {
		telemetry.ReportDeadlineShed(serverSpanLabel, deadline, telemetry.Now(), trace)
		ad.ctrl.Expired()
		ad.ctrl = nil
		status, out, retryAfter = s.shed()
	} else if e := resolve(&s.servants, key); e != nil && !e.retiring {
		var err error
		if e.ps != nil {
			out, err = e.ps.InvokeWithPriority(op, payload, rawPrio)
		} else {
			out, err = e.sv.Invoke(op, payload)
		}
		// A user exception is a completion like any other.
		ad.done()
		if err != nil {
			status, out = giop.ReplyUserException, []byte(err.Error())
		}
	} else if e != nil {
		ad.drop()
		status, out, retryAfter = s.shed()
	} else {
		ad.done()
		status, out = giop.ReplySystemException, noServantPayload
	}
	if span != 0 {
		telemetry.Record(telemetry.EvSpanEnd, serverSpanLabel, trace, span, uint64(telemetry.Now()-started))
	}
	return status, out, retryAfter, span
}

// direct is the collocated transport's server half: admit and execute inline
// on the caller's goroutine, the answer handed back by value — no frame, no
// queue, no reply. The payload of a success is the servant's own slice. As on
// the wire, a oneway's answer goes nowhere. ok false means the server has
// shut down and nothing ran.
func (s *Server) direct(key, op string, payload []byte, rawPrio byte, tn overload.Tenant, trace, corr uint64, oneway bool) (status giop.ReplyStatus, out []byte, retryAfter int64, ok bool) {
	if s.closed.Load() {
		return 0, nil, 0, false
	}
	if ad, admitted := s.admit(rawPrio, tn.ID, uint8(tn.Tier)); admitted {
		s.inflight.Add(1)
		status, out, retryAfter, _ = execute(s, &ad, key, op, payload, rawPrio, trace, corr)
		s.settled()
	} else {
		status, out, retryAfter = s.shed()
	}
	if oneway {
		return giop.ReplyNoException, nil, 0, true
	}
	return status, out, retryAfter, true
}

// dispatch is the wire transport's admission: the request's one decode,
// before anything is pooled, gives admit its priority and tenant, and an
// admitted request queues on the RequestProcessing port at its validated
// priority — so a high-priority invocation overtakes queued lower ones. A
// rejection answers expecting callers with a shed reply and keeps the
// connection — overload is a load condition, not a protocol error. dispatch
// takes ownership of the frame reference, handing it and the admission to the
// pooled message, whose recycle releases both. It reports false when the
// connection should drop: on a body that does not decode, and on pool
// exhaustion, the hard-real-time stance on overload.
func (s *Server) dispatch(sc *serverConn, toRP *core.OutPort, proc *core.Proc, h giop.Header, fb *giop.FrameBuf) bool {
	var req giop.Request
	if err := giop.DecodeRequest(h.Order, fb.Body(), &req); err != nil {
		fb.Release()
		telemetry.RecordFault("orb.server.demarshal", wireErr("demarshal", s.ln.Addr(), err))
		return false
	}
	ad, ok := s.admit(req.Priority, req.TenantID, req.TenantTier)
	if !ok {
		if req.ResponseExpected {
			writeShedReply(sc, h.Order, req.RequestID)
		}
		fb.Release()
		return true
	}
	msg, err := toRP.GetMessage()
	if err != nil {
		ad.drop()
		fb.Release()
		return false
	}
	m := msg.(*requestMsg)
	m.frame, m.req, m.order = fb, req, h.Order // the message adopts the frame reference
	m.conn, m.ad = sc, ad
	sc.inflight.Add(1)
	s.inflight.Add(1)
	// On a send error the port has already recycled the message (Reset),
	// releasing the frame reference and the admission with it. proc is the
	// reader's own: a synchronous port runs the request here, on its stack.
	return toRP.SendFrom(proc, msg, ad.prio) == nil
}

// writeShedReply answers a request shed before it reached execute — at
// admission or in the queue — so the caller fails fast with the back-off hint
// instead of hanging until its invoke timeout. Best effort: a write failure
// means the connection is dying, and its reader loop owns that diagnosis.
func writeShedReply(sc *serverConn, order giop.ByteOrder, requestID uint32) {
	status, payload, retryAfter := sc.srv.shed()
	wb := giop.GetBuffer()
	wb.B = giop.MarshalReply(wb.B, order, &giop.Reply{
		RequestID:    requestID,
		Status:       status,
		RetryAfterNs: retryAfter,
		Payload:      payload,
	})
	_ = sc.write(wb.B, false)
	giop.PutBuffer(wb)
}

// processRequest is the wire transport's execution, run in the
// RequestProcessing component's scope: it executes the decoded request and
// marshals and writes the outcome from that scope, which is reclaimed when
// the component quiesces — or, when requests overlapping in the component
// have filled it, from a pooled scope nested under it (memory.Context.Scratch).
func (s *Server) processRequest(p *core.Proc, msg core.Message) error {
	m := msg.(*requestMsg)
	req := &m.req
	status, out, retryAfter, span := execute(s, &m.ad, req.ObjectKey, req.Operation, req.Payload, req.Priority, req.TraceID, uint64(req.RequestID))
	if !req.ResponseExpected {
		return nil
	}

	// Room for the header, the fixed reply fields and both service contexts
	// (trace, retry-after).
	wireCap := giop.HeaderSize + 64 + len(out)
	return p.Context().Scratch(s.repPool, wireCap, func(ref memory.Ref) error {
		buf, err := ref.Bytes()
		if err != nil {
			return err
		}
		// The reply echoes the trace and carries the server span, so the
		// client can stitch the round trip.
		wire := giop.MarshalReply(buf[:0], m.order, &giop.Reply{
			RequestID:    req.RequestID,
			Status:       status,
			TraceID:      req.TraceID,
			SpanID:       span,
			RetryAfterNs: retryAfter,
			Payload:      out,
		})
		if err := m.conn.write(wire, false); err != nil {
			return fmt.Errorf("orb server: write reply: %w", wireErr("write", s.ln.Addr(), err))
		}
		return nil
	})
}

// Close shuts the server down: the listener and all connections close, the
// reader loops exit once their requests have finished, and the component
// application stops.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	// Withdraw from the collocation registry first: the generation bump
	// sends bound clients back to detection, which skips closed servers, so
	// their next invoke takes the wire path (and its own error handling)
	// instead of a stale direct pointer.
	unregisterLocal(s.net, s.ln.Addr(), s)
	_ = s.ln.Close()
	s.mu.Lock()
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	for sc := range conns {
		_ = sc.conn.Close()
	}
	s.wg.Wait() // every reader retires its own connection on the way out
	s.poaPin.Disconnect()
	s.app.Stop()
}
