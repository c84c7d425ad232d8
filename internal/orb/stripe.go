package orb

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/corba"
	"repro/internal/telemetry"
)

// This file is the striped channel pool: ClientConfig.Channels = N opens N
// multiplexed connections ("stripes") to the same server and spreads
// invocations across them by in-flight load alone (pickStripe). Requests keep
// their submission order on one connection — the default — and have none
// across stripes: two invocations at the same priority may ride different
// stripes and reach the server in either order. Resilience state is per
// stripe: each has its own circuit breaker and single-flight redial, so one
// dead stripe sheds its load onto the others without tripping the whole
// client open.

// maxChannels bounds ClientConfig.Channels.
const maxChannels = 32

// stripe is one multiplexed connection slot: the live connection (nil when
// disconnected), its single-flight redial lock, its in-flight count, and —
// under supervision — its own circuit breaker.
type stripe struct {
	cl  *Client
	idx int

	// addr is the stripe's current dial target. With a single-address client
	// every stripe targets ClientConfig.Addr; with a replica set (Addrs, or a
	// Retarget call) stripes spread round-robin across the members, and a
	// failed dial may move the stripe to a surviving member (replica.go).
	addr atomic.Pointer[string]

	// cur is the stripe's live connection; nil when disconnected. cmu
	// serialises redials so a wire fault stranding N callers triggers one
	// supervised redial on this stripe, not N.
	cur atomic.Pointer[muxConn]
	cmu sync.Mutex

	// inflight counts the stripe's entries in its connections' pending
	// tables: the load pickStripe compares.
	inflight atomic.Int64
	// sent counts invocations routed to this stripe (selection
	// observability, exercised by the stripe tests).
	sent  atomic.Int64
	brk   breaker
	gauge *telemetry.GaugeHandle
}

// live reports whether the stripe has a connection up right now.
func (st *stripe) live() bool { return st.cur.Load() != nil }

// target returns the stripe's current dial address.
func (st *stripe) target() string { return *st.addr.Load() }

// setTarget moves the stripe's dial address.
func (st *stripe) setTarget(a string) { st.addr.Store(&a) }

// conn returns the stripe's live connection, redialling under the stripe's
// single-flight lock when supervision is enabled and the previous
// connection died.
func (st *stripe) conn() (*muxConn, error) {
	if mc := st.cur.Load(); mc != nil {
		return mc, nil
	}
	cl := st.cl
	if cl.closed.Load() || cl.res == nil {
		return nil, corba.ErrClosed
	}
	st.cmu.Lock()
	defer st.cmu.Unlock()
	if mc := st.cur.Load(); mc != nil {
		// Another caller redialled while we waited.
		return mc, nil
	}
	if cl.closed.Load() {
		return nil, corba.ErrClosed
	}
	addr := st.target()
	conn, err := cl.network.Dial(addr)
	if err != nil && cl.resolve != nil {
		// The stripe's member is unreachable: refresh the replica set and try
		// one surviving member before charging the breaker. This is the
		// failover hop — a killed replica costs its stripe one resolve and one
		// extra dial, not an open circuit.
		if alt, ok := cl.failoverTarget(addr); ok {
			if conn, err = cl.network.Dial(alt); err == nil {
				st.setTarget(alt)
				stripeRetargetTotal.Inc()
			}
		}
	}
	if err != nil {
		telemetry.RecordFault("orb.client.redial", err)
		st.brk.Failure()
		return nil, fmt.Errorf("orb client redial %q: %w", addr, err)
	}
	mc := newMuxConn(st, conn)
	st.cur.Store(mc)
	reconnectTotal.Inc()
	telemetry.Record(telemetry.EvState, connLabel, 0, 0, connReconnected)
	return mc, nil
}

// detach clears the stripe's connection slot if mc is still current; called
// by the mux when the connection dies.
func (st *stripe) detach(mc *muxConn) {
	st.cur.CompareAndSwap(mc, nil)
}

// pickStripe selects the stripe an invocation rides by in-flight load alone:
// the less loaded of two random eligible stripes (power-of-two-choices), or
// the only eligible one. Eligible means reachable — a live connection, or
// supervision to redial one — and, under supervision, a breaker that is not
// refusing traffic (a read-only check: disconnected stripes stay eligible so
// load drifts back and triggers their redial). The single Allow() call of
// the whole invoke path is made here, on the stripe chosen: when no stripe
// admits traffic the caller fails fast with ErrCircuitOpen, and a half-open
// probe is consumed exactly once per attempt.
func (cl *Client) pickStripe() (*stripe, error) {
	sts := cl.stripes
	var buf [maxChannels]*stripe
	elig := buf[:0]
	for _, st := range sts {
		if cl.res == nil && !st.live() || cl.res != nil && !st.brk.mayAllow() {
			continue
		}
		elig = append(elig, st)
	}
	if len(elig) == 0 {
		if cl.res != nil {
			return nil, ErrCircuitOpen
		}
		// Every stripe is dead and nothing can redial: surface ErrClosed
		// through the normal conn() path.
		elig = append(elig, sts[0])
	}
	pick := elig[0]
	if n := uint64(len(elig)); n > 1 {
		i := cl.rand() % n
		j := cl.rand() % (n - 1)
		if j >= i {
			j++
		}
		pick = elig[i]
		if elig[j].inflight.Load() < pick.inflight.Load() {
			pick = elig[j]
		}
	}
	if cl.res != nil && !pick.brk.Allow() {
		// Lost the half-open probe race (or the breaker flipped): any other
		// eligible stripe that admits traffic will do.
		alt := pick
		for _, st := range elig {
			if st != pick && st.brk.Allow() {
				alt = st
				break
			}
		}
		if alt == pick {
			return nil, ErrCircuitOpen
		}
		pick = alt
	}
	pick.sent.Add(1)
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
