package orb

import (
	"slices"
	"time"

	"repro/internal/telemetry"
)

// This file spreads the striped channel pool (stripe.go) across a replica
// set: stripe i dials member i mod M, re-assigned when the set changes
// (Retarget) or a member refuses a dial (failoverTarget). A member death
// fails over instead of tripping the client: its connection dies cleanly (no
// breaker charge), the next redial fails once, and the stripe moves to a
// survivor discovered through the Resolve hook.

// Replica counters, exported at /metrics with the compadres_ prefix.
var (
	// memberResolveTotal counts membership re-resolutions through the
	// Resolve hook (failed dials and refresher-driven Retargets).
	memberResolveTotal = telemetry.NewCounter("member_resolve_total")
	// stripeRetargetTotal counts stripes moved to a different member.
	stripeRetargetTotal = telemetry.NewCounter("stripe_retarget_total")
)

// resolveMinInterval rate-limits the Resolve hook: a burst of stripes hitting
// a dead member triggers one directory round trip, not one each.
const resolveMinInterval = 10 * time.Millisecond

// retireGrace bounds how long a retired connection waits for its in-flight
// invocations before it is failed out.
const retireGrace = 2 * time.Second

// Members returns the replica addresses the client currently spreads over.
func (cl *Client) Members() []string { return *cl.members.Load() }

// Retarget replaces the replica set: stripes are reassigned round-robin over
// addrs, and a stripe whose target changed retires its live connection —
// detached immediately so new invokes dial the new member, closed in the
// background once accepted invocations drain. Retiring is classified as a
// clean close, so a rolling Retarget never charges any stripe's breaker. An
// empty addrs is ignored (the previous membership stands), and so is the
// current membership while every stripe targets its share of it.
func (cl *Client) Retarget(addrs []string) {
	cl.retargetMu.Lock()
	defer cl.retargetMu.Unlock()
	if len(addrs) == 0 || cl.closed.Load() || cl.spreadOver(addrs) {
		return
	}
	list := cl.setMembers(addrs)
	for i, st := range cl.stripes {
		want := list[i%len(list)]
		if st.target() == want {
			continue
		}
		st.setTarget(want)
		stripeRetargetTotal.Inc()
		if mc := st.cur.Load(); mc != nil {
			mc.retire(retireGrace)
		}
	}
}

// spreadOver reports whether addrs is the membership as a set and stripe i
// targets member i mod its size, the share Retarget would deal it.
func (cl *Client) spreadOver(addrs []string) bool {
	cur := cl.Members()
	same := len(cur) == len(addrs)
	for _, a := range addrs {
		same = same && slices.Contains(cur, a)
	}
	for i, st := range cl.stripes {
		same = same && st.target() == cur[i%len(cur)]
	}
	return same
}

// refreshMembers re-resolves the membership through the Resolve hook,
// single-flight, rate-limited from its first resolve on (Now counts from
// process start); on error or an empty answer the previous membership stands.
func (cl *Client) refreshMembers() []string {
	if cl.resolve == nil {
		return cl.Members()
	}
	cl.resolveMu.Lock()
	defer cl.resolveMu.Unlock()
	now := telemetry.Now()
	if cl.lastResolve != 0 && now-cl.lastResolve < int64(resolveMinInterval) {
		return cl.Members()
	}
	cl.lastResolve = now
	memberResolveTotal.Inc()
	addrs, err := cl.resolve()
	if err != nil {
		telemetry.RecordFault("orb.client.resolve", err)
		return cl.Members()
	}
	if len(addrs) == 0 {
		return cl.Members()
	}
	return cl.setMembers(addrs)
}

// failoverTarget picks a replacement dial target for a stripe whose dial to
// failed was refused: refresh the membership and choose a member other than
// the failed one, rotating so concurrent failovers spread across the
// survivors instead of piling onto one.
func (cl *Client) failoverTarget(failed string) (string, bool) {
	members := cl.refreshMembers()
	n := len(members)
	if n == 0 {
		return "", false
	}
	start := int(cl.rotate.Add(1)) % n
	for i := 0; i < n; i++ {
		if cand := members[(start+i)%n]; cand != failed {
			return cand, true
		}
	}
	return "", false
}

// StripeState is one stripe's observable routing state: which member it
// targets, whether its connection is up, and its traffic counters. The
// per-replica load split of a cluster client is the sum of these grouped by
// Addr.
type StripeState struct {
	// Addr is the member the stripe currently dials.
	Addr string
	// Live reports whether the stripe's connection is up.
	Live bool
	// Inflight is the stripe's current in-flight invocation count.
	Inflight int64
	// Sent counts invocations ever routed to the stripe.
	Sent int64
}

// StripeStates snapshots every stripe's routing state.
func (cl *Client) StripeStates() []StripeState {
	out := make([]StripeState, len(cl.stripes))
	for i, st := range cl.stripes {
		out[i] = StripeState{
			Addr:     st.target(),
			Live:     st.live(),
			Inflight: st.inflight.Load(),
			Sent:     st.sent.Load(),
		}
	}
	return out
}
