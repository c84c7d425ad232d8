package orb

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corba"
	"repro/internal/telemetry"
)

// This file is the client's membership: one multiplexed connection slot per
// distinct member address — ClientConfig.Addr, or each entry of Addrs or of a
// Retarget list. The slot list is the only copy of the membership, replaced
// copy-on-write; a slot keeps its address for life. Invocations spread over
// the members by in-flight load alone (pickMember). Requests keep their
// submission order on one connection, so per member, and have none across
// members. Resilience state is per member: each has its own circuit breaker
// and single-flight redial, so one dead member sheds its load onto the others
// without tripping the whole client open. A member whose dial is refused while
// another member survives is skipped, with no breaker charge, until a Retarget
// names it again; the invocation that found it rides a survivor.

// Membership counters, exported at /metrics with the compadres_ prefix.
var (
	// memberResolveTotal counts membership re-resolutions through the
	// Resolve hook, one per refused dial outside the rate limit.
	memberResolveTotal = telemetry.NewCounter("member_resolve_total")
)

// resolveMinInterval rate-limits the Resolve hook: a burst of invocations
// hitting a dead member triggers one directory round trip, not one each.
const resolveMinInterval = 10 * time.Millisecond

// retireGrace bounds how long a retired connection waits for its in-flight
// invocations before it is failed out.
const retireGrace = 2 * time.Second

// errSkipped tells the submit path that the member it picked cannot carry the
// invocation — a Retarget removed it, or its dial was refused and it is now
// skipped — and that another member should.
var errSkipped = errors.New("orb client: member skipped")

// member is one member's connection slot: its address, the live connection
// (nil when disconnected), the single-flight dial lock, the in-flight count
// and — under supervision — the member's own circuit breaker.
type member struct {
	cl   *Client
	addr string

	// cur is the member's live connection; nil when disconnected. cmu
	// serialises dials so a wire fault stranding N callers triggers one
	// supervised redial on this member, not N. dialled records that the
	// member has had a connection: an unsupervised client dials each member
	// once.
	cur     atomic.Pointer[muxConn]
	cmu     sync.Mutex
	dialled atomic.Bool

	// skip marks a member whose dial was refused while another survived;
	// gone, one a Retarget removed. Neither is picked.
	skip atomic.Bool
	gone atomic.Bool

	// inflight counts the member's entries in its connections' pending
	// tables: the load pickMember compares.
	inflight atomic.Int64
	brk      breaker
}

// live reports whether the member has a connection up right now.
func (m *member) live() bool { return m.cur.Load() != nil }

// conn returns the member's live connection, dialling under the member's
// single-flight lock when it has none: under supervision after every
// connection death, unsupervised only the first time. A refused supervised
// dial may skip the member instead of charging its breaker (failover), and
// then answers errSkipped.
func (m *member) conn() (*muxConn, error) {
	if mc := m.cur.Load(); mc != nil {
		return mc, nil
	}
	cl := m.cl
	if cl.closed.Load() || cl.res == nil && m.dialled.Load() {
		return nil, corba.ErrClosed
	}
	m.cmu.Lock()
	defer m.cmu.Unlock()
	if mc := m.cur.Load(); mc != nil {
		// Another caller dialled while we waited.
		return mc, nil
	}
	switch {
	case cl.closed.Load() || cl.res == nil && m.dialled.Load():
		return nil, corba.ErrClosed
	case m.gone.Load():
		return nil, errSkipped
	}
	conn, err := cl.network.Dial(m.addr)
	if err != nil {
		err = fmt.Errorf("orb client dial %q: %w", m.addr, err)
		if cl.res == nil {
			return nil, err
		}
		if cl.failover(m) {
			return nil, errSkipped
		}
		telemetry.RecordFault("orb.client.dial", err)
		m.brk.Failure()
		return nil, err
	}
	mc := newMuxConn(m, conn)
	m.cur.Store(mc)
	if m.gone.Load() {
		// A Retarget removed the member while we dialled, and may have
		// missed this connection: nothing was sent on it yet.
		mc.fail(fmt.Errorf("orb client: retired: %w", corba.ErrClosed))
		return nil, errSkipped
	}
	if m.dialled.Swap(true) {
		reconnectTotal.Inc()
		telemetry.Record(telemetry.EvState, connLabel, 0, 0, connReconnected)
	}
	return mc, nil
}

// detach clears the member's connection slot if mc is still current; called
// by the mux when the connection dies.
func (m *member) detach(mc *muxConn) {
	m.cur.CompareAndSwap(mc, nil)
}

// eligible reports whether pickMember may route to m: reachable — a live
// connection, or a dial still to make — and, under supervision, neither
// skipped nor behind a breaker refusing traffic (a read-only check:
// disconnected members stay eligible so load drifts back and triggers their
// redial).
func (cl *Client) eligible(m *member) bool {
	if cl.res == nil {
		return m.live() || !m.dialled.Load()
	}
	return !m.skip.Load() && m.brk.mayAllow()
}

// pickMember selects the member an invocation rides by in-flight load alone:
// the less loaded of two random members when both are eligible
// (power-of-two-choices), the eligible one of the two, or else the first
// eligible member; with one member, that one. The single Allow() call of the
// whole invoke path is made here, on the member chosen: when no member admits
// traffic the caller fails fast with ErrCircuitOpen, and a half-open probe is
// consumed exactly once per attempt.
func (cl *Client) pickMember() (*member, error) {
	ms := *cl.members.Load()
	pick := ms[0]
	if n := uint64(len(ms)); n > 1 {
		i := cl.rand() % n
		j := cl.rand() % (n - 1)
		if j >= i {
			j++
		}
		pick = ms[i]
		if o := ms[j]; !cl.eligible(pick) || cl.eligible(o) && o.inflight.Load() < pick.inflight.Load() {
			pick = o
		}
	}
	if !cl.eligible(pick) {
		pick = nil
		for _, m := range ms {
			if cl.eligible(m) {
				pick = m
				break
			}
		}
		if pick == nil {
			if cl.res != nil {
				return nil, ErrCircuitOpen
			}
			// Every member is dead and nothing can redial: surface ErrClosed
			// through the normal conn() path.
			return ms[0], nil
		}
	}
	if cl.res != nil && !pick.brk.Allow() {
		// Lost the half-open probe race (or the breaker flipped): any other
		// eligible member that admits traffic will do.
		for _, m := range ms {
			if m != pick && cl.eligible(m) && m.brk.Allow() {
				return m, nil
			}
		}
		return nil, ErrCircuitOpen
	}
	return pick, nil
}

// rand steps the client's splitmix64 state: cheap, lock-free randomness for
// the two choices.
func (cl *Client) rand() uint64 {
	s := cl.rng.Add(0x9e3779b97f4a7c15)
	s ^= s >> 30
	s *= 0xbf58476d1ce4e5b9
	s ^= s >> 27
	s *= 0x94d049bb133111eb
	return s ^ (s >> 31)
}

// Members returns the member addresses the client currently spreads over.
func (cl *Client) Members() []string {
	ms := *cl.members.Load()
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.addr
	}
	return out
}

// Retarget replaces the membership with the distinct addresses of addrs. A
// kept member keeps its slot — connection, breaker and in-flight count — and
// is no longer skipped; a new member gets a fresh slot, dialled on first use;
// a removed member's live connection retires — detached immediately, closed
// in the background once accepted invocations drain. Retiring is classified
// as a clean close, so a rolling Retarget never charges a breaker. An empty
// addrs is ignored (the previous membership stands), and the current
// membership, in any order, stores nothing.
func (cl *Client) Retarget(addrs []string) {
	cl.retargetMu.Lock()
	defer cl.retargetMu.Unlock()
	if len(addrs) == 0 || cl.closed.Load() {
		return
	}
	old := *cl.members.Load()
	next := make([]*member, 0, len(addrs))
	changed := false
	for _, a := range addrs {
		has := func(m *member) bool { return m.addr == a }
		if slices.ContainsFunc(next, has) {
			continue
		}
		if i := slices.IndexFunc(old, has); i >= 0 {
			old[i].skip.Store(false)
			next = append(next, old[i])
			continue
		}
		m := &member{cl: cl, addr: a}
		if cl.res != nil {
			cl.res.initBreaker(&m.brk)
		}
		next = append(next, m)
		changed = true
	}
	if !changed && len(next) == len(old) {
		return
	}
	for _, m := range old {
		if slices.Contains(next, m) {
			continue
		}
		m.gone.Store(true)
		if mc := m.cur.Load(); mc != nil {
			mc.retire(retireGrace)
		}
	}
	cl.setMembers(next)
}

// failover decides the fate of an invocation that found m's dial refused.
// With a Resolve hook — a membership authority that will name m again once
// it is back — it re-resolves the membership, then, if another member
// survives (one not skipped), skips m and reports true, so the invocation
// rides a survivor and no breaker is charged.
func (cl *Client) failover(m *member) bool {
	if cl.resolve == nil {
		return false
	}
	cl.refreshMembers()
	cl.retargetMu.Lock()
	defer cl.retargetMu.Unlock()
	ms := *cl.members.Load()
	if !slices.ContainsFunc(ms, func(o *member) bool { return o != m && !o.skip.Load() }) {
		return false
	}
	m.skip.Store(true)
	return true
}

// refreshMembers re-resolves the membership through the Resolve hook and
// retargets to the answer, single-flight, rate-limited from its first resolve
// on (Now counts from process start); on error or an empty answer the
// previous membership stands.
func (cl *Client) refreshMembers() {
	cl.resolveMu.Lock()
	defer cl.resolveMu.Unlock()
	now := telemetry.Now()
	if cl.lastResolve != 0 && now-cl.lastResolve < int64(resolveMinInterval) {
		return
	}
	cl.lastResolve = now
	memberResolveTotal.Inc()
	addrs, err := cl.resolve()
	if err != nil {
		telemetry.RecordFault("orb.client.resolve", err)
		return
	}
	cl.Retarget(addrs)
}
