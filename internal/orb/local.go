package orb

import (
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Collocation detection: when the dial target is an orb.Server living in
// this process on the same Network, an opted-in client's invocations take the
// direct transport (Client.call → Server.direct) instead of the wire — the
// canonical middleware collocation optimisation. This file is only the
// process-local registry that finds such a server and the generation-checked
// binding that caches the answer; what a direct invocation does is the same
// admit and execute a wire request passes through (server.go).

// collocatedInvokeTotal counts invocations served by the direct transport.
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
	localReg.mu.Lock()
	for _, m := range *cl.members.Load() {
		if s := localReg.m[localKey{net: cl.network, addr: m.addr}]; s != nil && !s.closed.Load() {
			srv = s
			break
		}
	}
	localReg.mu.Unlock()
	cl.local.Store(&localBinding{srv: srv, reg: reg, route: route})
	return srv
}

// setMembers installs ms as the membership. It may gain or lose an in-process
// member, so a collocating client bumps its route generation: the next invoke
// re-detects instead of trusting the old decision.
func (cl *Client) setMembers(ms []*member) {
	cl.members.Store(&ms)
	if cl.collocate {
		cl.routeGen.Add(1)
	}
}
