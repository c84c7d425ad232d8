package orb

import (
	"repro/internal/core"
	"repro/internal/giop"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Payload-copy accounting for the zero-copy request path. The steady-state
// pipeline moves payload bytes socket→servant (and reply→caller) without
// intermediate copies; the sites that still copy — the legacy Invoke API
// copying a reply out of its arrival frame before release, and explicit
// FrameBuf/Loan Detach escapes — count here, so "zero copies per op" is a
// measured property, not a claim. Exported at /metrics with the compadres_
// prefix; the benchmark's giop.payload_copies_per_op is read from these.
var (
	payloadCopyTotal = telemetry.NewCounter("payload_copy_total")
	payloadCopyBytes = telemetry.NewCounter("payload_copy_bytes")
)

// invokeResult carries a completed invocation back to the caller. When frame
// is non-nil, payload aliases the arrival frame's buffer and ownership of one
// frame reference travels with the result: whoever receives it from the
// completion channel must release the frame once the payload has been
// consumed (copied out, or viewed under InvokeView). Error results never
// carry a frame.
type invokeResult struct {
	payload []byte
	err     error
	frame   *giop.FrameBuf
}

// release drops the result's frame reference, if any.
func (r *invokeResult) release() {
	if r.frame != nil {
		r.frame.Release()
		r.frame = nil
	}
}

// invokeMsg carries one invocation from its caller into the client's
// MessageProcessing component, drawn from the Transport's message pool. Each
// Invoke installs its own pending entry, so pooled reuse cannot cross replies
// between concurrent callers. keyBuf is a message-owned copy of the object
// key bytes (capacity reused across pool cycles) so marshalling needs no
// string→[]byte conversion.
type invokeMsg struct {
	id      uint32
	keyBuf  []byte
	op      string
	payload []byte
	oneway  bool
	prio    sched.Priority
	pe      *muxPending
	// m is the member the invocation was routed to; the submit path uses
	// that member's connection, and moves it to another if it is skipped.
	m *member
	// trace and span identify the caller's trace context; they ride the
	// invocation through the component structure and onto the wire as a
	// GIOP service context, so client and server flight recorders can be
	// stitched into one trace. Zero means untraced.
	trace uint64
	span  uint64
}

// Reset implements core.Message; it keeps keyBuf's capacity so pooled
// messages stop allocating in steady state.
func (m *invokeMsg) Reset() {
	kb := m.keyBuf[:0]
	*m = invokeMsg{}
	m.keyBuf = kb
}

var invokeType = core.MessageType{
	Name: "InvokeRequest",
	Size: 128,
	New:  func() core.Message { return &invokeMsg{} },
}

// requestMsg travels from a server Transport to its RequestProcessing
// child: one GIOP request, decoded at admission. Its key and payload alias
// the arrival frame, on which the message owns one reference, so the request
// bytes travel socket→servant uncopied. Reset — which every pooled recycle
// path runs, dispatch-error unwinds too — releases the reference.
type requestMsg struct {
	req   giop.Request
	frame *giop.FrameBuf
	order giop.ByteOrder
	// conn is the connection the request arrived on; set by dispatch, it also
	// marks the message as counted in the connection's in-flight total and
	// the server's (Drain's quiescence signal) until it recycles.
	conn *serverConn
	// ad is the request's admission. The slot it holds is settled by exactly
	// one of execute, OnShed (orphaned in the queue), or Reset (any
	// other unwind — a failed Send).
	ad admission
}

// Reset implements core.Message; it releases the message's frame reference
// and in-flight count. A still-held admission slot means the message unwound
// without reaching execute or OnShed: release it as a drop, never as a
// completion — and before the in-flight count, so a Drain that returns finds
// the controller's slot released too.
func (m *requestMsg) Reset() {
	m.ad.drop()
	m.ad = admission{}
	if m.conn != nil {
		m.conn.inflight.Add(-1)
		m.conn.srv.settled()
		m.conn = nil
	}
	if m.frame != nil {
		m.frame.Release()
		m.frame = nil
	}
	m.req = giop.Request{}
	m.order = giop.BigEndian
}

// TenantClass implements core.TenantClassed: the request port divides a
// priority band's bandwidth across these lanes.
func (m *requestMsg) TenantClass() uint8 { return m.ad.class }

// OnShed implements core.ShedAware: a shutdown orphaned this request queued.
// The slot releases as a drop — shed work never executed, so it is not a latency signal — and,
// when the client expects a response, a shed reply tells it so rather than
// leaving the call to hang until its invoke timeout.
func (m *requestMsg) OnShed() {
	if m.ad.ctrl == nil {
		return
	}
	m.ad.drop()
	if m.conn != nil && m.req.ResponseExpected {
		writeShedReply(m.conn, m.order, m.req.RequestID)
	}
}

var requestType = core.MessageType{
	Name: "GIOPRequest",
	Size: 256,
	New:  func() core.Message { return &requestMsg{} },
}
