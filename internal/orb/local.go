package orb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corba"
	"repro/internal/overload"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Collocated invocation fast path: when the dial target is an orb.Server
// living in this process on the same Network, an opted-in client's
// Invoke/InvokeView/InvokeOneway skip GIOP marshalling, the connection
// writer, the stripes, and the demux reactor entirely and call the servant
// directly on the caller's goroutine — the canonical middleware collocation
// optimisation. The direct path is NOT allowed to dodge any server-side
// policy: the overload Admit gate, tenant classification, the retiring-key
// shed, the in-flight gauges, the latency sample feeding the AIMD limit,
// and the trace spans all behave exactly as they do for a wire request.

// collocatedInvokeTotal counts invocations served through the direct path.
var collocatedInvokeTotal = telemetry.NewCounter("collocated_invoke_total")

// localKey identifies one process-local listen endpoint: the Network
// instance and the bound address. Keying by the Network value (not just the
// address) keeps independent inproc networks — every test builds its own —
// from aliasing each other.
type localKey struct {
	net  transport.Network
	addr string
}

// localReg is the process-local endpoint registry. Servers register at
// listen time and unregister on Close; every mutation bumps gen, which is
// the one atomic a bound client re-checks per invoke to know its cached
// collocation decision still stands.
var localReg = struct {
	mu  sync.Mutex
	m   map[localKey]*Server
	gen atomic.Uint64
}{m: make(map[localKey]*Server)}

// registerLocal publishes a server's listen endpoint to the process-local
// registry.
func registerLocal(net transport.Network, addr string, s *Server) {
	localReg.mu.Lock()
	localReg.m[localKey{net: net, addr: addr}] = s
	localReg.mu.Unlock()
	localReg.gen.Add(1)
}

// unregisterLocal withdraws a server from the registry (if it is still the
// registered owner of the endpoint) and invalidates every cached
// collocation decision via the generation bump.
func unregisterLocal(net transport.Network, addr string, s *Server) {
	k := localKey{net: net, addr: addr}
	localReg.mu.Lock()
	if localReg.m[k] == s {
		delete(localReg.m, k)
	}
	localReg.mu.Unlock()
	localReg.gen.Add(1)
}

// lookupLocal resolves an endpoint to an in-process server, nil when the
// endpoint is remote (or the server is gone).
func lookupLocal(net transport.Network, addr string) *Server {
	localReg.mu.Lock()
	defer localReg.mu.Unlock()
	return localReg.m[localKey{net: net, addr: addr}]
}

// localBinding is a client's cached collocation decision: the in-process
// server serving its current membership (nil = every member is remote),
// valid only while both generations stand. reg is the registry generation
// (bumped by server register/unregister), route the client's own route
// generation (bumped by Retarget and membership refreshes), so both a
// server swap and a client retarget invalidate the decision — the wire
// path is the fallback, never a stale direct pointer.
type localBinding struct {
	srv   *Server
	reg   uint64
	route uint64
}

// localServer returns the collocated server to use for the next invoke, or
// nil to take the wire path. Steady state is two atomic generation loads
// and one pointer compare; detection re-runs only after a registry or
// route-generation bump.
func (cl *Client) localServer() *Server {
	if !cl.collocate {
		return nil
	}
	reg, route := localReg.gen.Load(), cl.routeGen.Load()
	if b := cl.local.Load(); b != nil && b.reg == reg && b.route == route {
		return b.srv
	}
	var srv *Server
	for _, addr := range cl.Members() {
		if s := lookupLocal(cl.network, addr); s != nil && !s.closed.Load() {
			srv = s
			break
		}
	}
	cl.local.Store(&localBinding{srv: srv, reg: reg, route: route})
	return srv
}

// bumpRoute invalidates the cached collocation decision after a retarget
// or membership refresh; the next invoke re-detects against the new
// membership.
func (cl *Client) bumpRoute() {
	if cl.collocate {
		cl.routeGen.Add(1)
	}
}

// invokeCollocated runs one invocation through the direct path. handled is
// false when the server turned out to be closed (the binding was stale):
// the caller invalidates and falls back to the wire path for this same
// call, so a hot swap of a collocated servant never drops an invocation.
func (cl *Client) invokeCollocated(srv *Server, key, op string, payload []byte, prio sched.Priority, oneway bool) (out []byte, err error, handled bool) {
	trace, span, started := startSpan(0)
	cl.inflight.Add(1)
	out, err = srv.invokeLocal(key, op, payload, prio, cl.tenant, trace, oneway)
	cl.inflight.Add(-1)
	endSpan(trace, span, started)
	if err != nil && errors.Is(err, corba.ErrClosed) && !cl.closed.Load() {
		// The server shut down between detection and dispatch. Drop the
		// binding — detection skips closed servers, so the very next invoke
		// lands on the wire path even before the registry bump is observed —
		// and have the caller retry this call over the wire.
		cl.local.Store(nil)
		return nil, nil, false
	}
	collocatedInvokeTotal.Inc()
	return out, err, true
}

// invokeLocal serves one collocated invocation with every server-side gate
// a wire request passes through: the overload admission decision (tenant
// and tier classified exactly as from the GIOP service context), the
// retiring-key shed with retry-after pacing, the in-flight count Drain
// waits on, the server span under the caller's trace, and the completion
// latency sample that drives the AIMD limit. Dispatch follows the sched
// synchronous contract (sched.Pool with Max == 0): the calling thread
// executes the servant at the propagated, clamped priority, with the
// request deadline checked before execution — inlined here so the crossing
// allocates nothing.
func (s *Server) invokeLocal(key, op string, payload []byte, prio sched.Priority, tn overload.Tenant, trace uint64, oneway bool) ([]byte, error) {
	if s.closed.Load() {
		return nil, corba.ErrClosed
	}
	prio = prio.Clamp()
	admitAt := telemetry.Now()
	ctrl := s.ctrl
	if ctrl != nil {
		if d := ctrl.Admit(tn.ID, tn.Tier, prio); !d.OK {
			// Identical to the wire shed reply: the controller's back-off
			// hint rides a ShedError the resilient client's pacing honours.
			return nil, &ShedError{RetryAfter: time.Duration(s.retryAfterNs()), Detail: string(shedReplyPayload)}
		}
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	var serverSpan uint64
	var spanStart int64
	if trace != 0 && telemetry.VerboseEnabled() {
		serverSpan = telemetry.NewID()
		telemetry.Record(telemetry.EvSpanStart, serverSpanLabel, trace, serverSpan, 0)
		spanStart = telemetry.Now()
		defer func() {
			telemetry.Record(telemetry.EvSpanEnd, serverSpanLabel, trace, serverSpan, uint64(telemetry.Now()-spanStart))
		}()
	}

	if ctrl != nil && s.reqDeadline > 0 && telemetry.Now() > admitAt+int64(s.reqDeadline) {
		// The admitted request outlived its queueing deadline before the
		// servant could run (sched's dequeue-time shed, degenerate on a
		// queueless path). Release the slot as a drop, like ShedExpired.
		ctrl.Dropped()
		return nil, &ShedError{RetryAfter: time.Duration(s.retryAfterNs()), Detail: string(shedReplyPayload)}
	}

	sv, ok := s.servantByName(key)
	if !ok {
		if s.retiringByName(key) {
			// A drain unbound this servant: shed with the back-off hint, and
			// release the admission slot as a drop — a rejection is not a
			// latency sample (mirrors the wire path's recycle-as-shed).
			if ctrl != nil {
				ctrl.Dropped()
			}
			return nil, &ShedError{RetryAfter: time.Duration(s.retryAfterNs()), Detail: string(shedReplyPayload)}
		}
		// The wire path answers a system-exception reply and still counts
		// the completion; surface the same error shape the demux reactor
		// produces for it.
		if ctrl != nil {
			ctrl.Done(telemetry.Now() - admitAt)
		}
		return nil, fmt.Errorf("%w: %s", corba.ErrSystemException, corba.ErrNoServant.Error())
	}

	var out []byte
	var serr error
	if ps, pok := sv.(corba.PrioritizedServant); pok {
		out, serr = ps.InvokeWithPriority(op, payload, byte(prio))
	} else {
		out, serr = sv.Invoke(op, payload)
	}
	if ctrl != nil {
		// Admission-to-completion is the latency sample driving the AIMD
		// limit, for user exceptions as for successes — same as the wire
		// path, where the reply write marks done() either way.
		ctrl.Done(telemetry.Now() - admitAt)
	}
	if serr != nil {
		return nil, fmt.Errorf("%w: %s", corba.ErrUserException, serr.Error())
	}
	if oneway {
		return nil, nil
	}
	// The returned slice is the servant's own memory, handed to the caller
	// without the wire path's marshal/unmarshal copies — the zero-copy
	// contract of collocation (see ClientConfig.Collocate).
	return out, nil
}

// servantByName resolves an object key from the copy-on-write servant map
// without converting or copying the key.
func (s *Server) servantByName(key string) (corba.Servant, bool) {
	p := s.servants.Load()
	if p == nil {
		return nil, false
	}
	sv, ok := (*p)[key]
	return sv, ok
}

// retiringByName is isRetiring for a string key (no []byte conversion).
func (s *Server) retiringByName(key string) bool {
	p := s.retiring.Load()
	if p == nil {
		return false
	}
	_, ok := (*p)[key]
	return ok
}
