package giop

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// GIOP message types (GIOP 1.0).
const (
	MsgRequest MsgType = iota
	MsgReply
	MsgCancelRequest
	MsgLocateRequest
	MsgLocateReply
	MsgCloseConnection
	MsgMessageError
)

// MsgType identifies a GIOP message.
type MsgType byte

// String returns the GIOP message type name.
func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "Request"
	case MsgReply:
		return "Reply"
	case MsgCancelRequest:
		return "CancelRequest"
	case MsgLocateRequest:
		return "LocateRequest"
	case MsgLocateReply:
		return "LocateReply"
	case MsgCloseConnection:
		return "CloseConnection"
	case MsgMessageError:
		return "MessageError"
	default:
		return fmt.Sprintf("MsgType(%d)", byte(t))
	}
}

// Reply status values (GIOP 1.0).
const (
	ReplyNoException ReplyStatus = iota
	ReplyUserException
	ReplySystemException
	ReplyLocationForward
)

// ReplyStatus reports the outcome of a request.
type ReplyStatus uint32

// String returns the reply status name.
func (s ReplyStatus) String() string {
	switch s {
	case ReplyNoException:
		return "NO_EXCEPTION"
	case ReplyUserException:
		return "USER_EXCEPTION"
	case ReplySystemException:
		return "SYSTEM_EXCEPTION"
	case ReplyLocationForward:
		return "LOCATION_FORWARD"
	default:
		return fmt.Sprintf("ReplyStatus(%d)", uint32(s))
	}
}

// Protocol framing constants.
const (
	// HeaderSize is the fixed GIOP message header size.
	HeaderSize = 12
	// MaxMessageSize bounds accepted message bodies, protecting fixed-size
	// scoped regions from hostile or corrupt length fields.
	MaxMessageSize = 1 << 20
)

var giopMagic = [4]byte{'G', 'I', 'O', 'P'}

// TraceContextID tags the telemetry trace service context ("TRAC" in ASCII).
// Its data is exactly 16 octets — trace id then span id, each 8 bytes in the
// message's byte order — so a round trip stitches into one distributed trace.
// Requests and replies with a zero trace id omit the context entirely, which
// keeps their wire form byte-identical to a tracing-unaware peer's.
const TraceContextID uint32 = 0x54524143

// traceContextLen is the trace context's fixed data length.
const traceContextLen = 16

// TenantContextID tags the tenant-classification service context ("TENT" in
// ASCII). Its data is exactly 9 octets — the tenant id (8 bytes in the
// message's byte order) followed by one QoS-tier octet — so the server's
// admission control can classify a request before it queues.
// Requests from an untenanted client (tenant id zero) omit the context
// entirely: their wire form is byte-identical to a tenant-unaware peer's.
const TenantContextID uint32 = 0x54454E54

// tenantContextLen is the tenant context's fixed data length.
const tenantContextLen = 9

// RetryAfterContextID tags the retry-after service context ("RTRY" in
// ASCII) carried on system-exception replies written by an overloaded
// server. Its data is exactly 8 octets — the suggested back-off in
// nanoseconds, in the message's byte order — so a shed client can pace its
// retry to the server's brown-out horizon instead of guessing. Replies with
// a zero hint omit the context entirely: their wire form stays
// byte-identical to a hint-unaware peer's.
const RetryAfterContextID uint32 = 0x52545259

// retryAfterContextLen is the retry-after context's fixed data length.
const retryAfterContextLen = 8

// Header framing errors.
var (
	// ErrBadMagic reports a frame that does not start with "GIOP".
	ErrBadMagic = errors.New("giop: bad magic")
	// ErrBadVersion reports an unsupported GIOP version.
	ErrBadVersion = errors.New("giop: unsupported version")
	// ErrTooLarge reports a message body over MaxMessageSize.
	ErrTooLarge = errors.New("giop: message too large")
)

// Header is the 12-byte GIOP message header.
type Header struct {
	// Type is the message type.
	Type MsgType
	// Order is the body's byte order (from the flags octet).
	Order ByteOrder
	// Size is the body length in bytes.
	Size uint32
}

// AppendHeader appends the wire form of h to buf. The size field is encoded
// in h.Order, as GIOP specifies.
func AppendHeader(buf []byte, h Header) []byte {
	buf = append(buf, giopMagic[:]...)
	buf = append(buf, 1, 0) // GIOP 1.0
	var flags byte
	if h.Order == LittleEndian {
		flags |= 1
	}
	buf = append(buf, flags, byte(h.Type))
	return h.Order.order().AppendUint32(buf, h.Size)
}

// ParseHeader decodes a 12-byte GIOP header.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("%w: header needs %d bytes, have %d", ErrTruncated, HeaderSize, len(b))
	}
	if [4]byte(b[:4]) != giopMagic {
		return Header{}, fmt.Errorf("%w: %q", ErrBadMagic, b[:4])
	}
	if b[4] != 1 {
		return Header{}, fmt.Errorf("%w: %d.%d", ErrBadVersion, b[4], b[5])
	}
	var h Header
	if b[6]&1 == 1 {
		h.Order = LittleEndian
	}
	h.Type = MsgType(b[7])
	h.Size = h.Order.order().Uint32(b[8:12])
	if h.Size > MaxMessageSize {
		return Header{}, fmt.Errorf("%w: %d bytes", ErrTooLarge, h.Size)
	}
	return h, nil
}

// Request is a simplified GIOP 1.0 request: header fields plus the
// already-encoded body payload.
type Request struct {
	// RequestID correlates the reply.
	RequestID uint32
	// ResponseExpected is false for oneway operations.
	ResponseExpected bool
	// ObjectKey addresses the target servant.
	ObjectKey []byte
	// Operation is the method name.
	Operation string
	// Priority is the RT-CORBA priority propagated with the call (an
	// extension octet after the GIOP 1.0 principal field; both ORBs in this
	// repository speak it).
	Priority byte
	// TraceID and SpanID propagate the telemetry trace in a service context
	// (TraceContextID). Zero TraceID means untraced: the context is omitted
	// from the wire form entirely.
	TraceID, SpanID uint64
	// TenantID and TenantTier classify the request for server-side admission
	// control in a service context (TenantContextID). Zero TenantID means
	// untenanted: the context is omitted from the wire form entirely.
	TenantID   uint64
	TenantTier uint8
	// Payload is the operation's marshalled in-parameters.
	Payload []byte
}

// Reply is a simplified GIOP 1.0 reply.
type Reply struct {
	// RequestID correlates the request.
	RequestID uint32
	// Status reports the outcome.
	Status ReplyStatus
	// TraceID and SpanID propagate the telemetry trace back to the caller;
	// see Request.TraceID.
	TraceID, SpanID uint64
	// RetryAfterNs is the server's suggested back-off in nanoseconds,
	// carried in a service context (RetryAfterContextID) on shed replies.
	// Zero means no hint: the context is omitted from the wire form.
	RetryAfterNs int64
	// Payload is the marshalled result (or exception data).
	Payload []byte
}

// contexts is what a message's service-context sequence carries, in the
// three kinds this ORB speaks: trace (requests and replies), tenant
// (requests) and retry-after (replies). A zero field is an absent context.
type contexts struct {
	trace, span uint64
	tenant      uint64
	tier        uint8
	retryAfter  int64
}

// writeContexts emits the service-context sequence, one entry per present
// kind, the empty sequence when none is. Context data is written as raw bytes
// in the stream's byte order — Encoder.WriteULongLong would 8-align relative
// to the stream origin and corrupt the octet-seq length; the 9-byte tenant
// data is safe because every later field re-aligns relative to the origin.
func (e *Encoder) writeContexts(c contexts) {
	n := uint32(0)
	if c.trace != 0 {
		n++
	}
	if c.tenant != 0 {
		n++
	}
	if c.retryAfter > 0 {
		n++
	}
	e.WriteULong(n)
	o := e.order.order()
	if c.trace != 0 {
		e.WriteULong(TraceContextID)
		e.WriteULong(traceContextLen) // octet-seq length
		e.buf = o.AppendUint64(o.AppendUint64(e.buf, c.trace), c.span)
	}
	if c.tenant != 0 {
		e.WriteULong(TenantContextID)
		e.WriteULong(tenantContextLen)
		e.buf = append(o.AppendUint64(e.buf, c.tenant), c.tier)
	}
	if c.retryAfter > 0 {
		e.WriteULong(RetryAfterContextID)
		e.WriteULong(retryAfterContextLen)
		e.buf = o.AppendUint64(e.buf, uint64(c.retryAfter))
	}
}

// readContexts reads a service-context sequence. An entry of an unknown kind,
// of the wrong length, or with a zero trace or tenant id or a non-positive
// hint is skipped, not misread; a count the remaining bytes cannot hold is
// refused before the loop walks it.
func (d *Decoder) readContexts() (c contexts, err error) {
	n, err := d.ReadULong()
	if err != nil {
		return c, err
	}
	// Each entry is at least 8 bytes: its id and its data length.
	if uint64(n)*8 > uint64(d.Remaining()) {
		return c, fmt.Errorf("%w: %d service contexts in %d bytes", ErrTruncated, n, d.Remaining())
	}
	o := d.order.order()
	for ; n > 0; n-- {
		id, err := d.ReadULong()
		if err != nil {
			return c, err
		}
		data, err := d.ReadOctetSeq()
		if err != nil {
			return c, err
		}
		switch {
		case id == TraceContextID && len(data) == traceContextLen && o.Uint64(data) != 0:
			c.trace, c.span = o.Uint64(data), o.Uint64(data[8:])
		case id == TenantContextID && len(data) == tenantContextLen && o.Uint64(data) != 0:
			c.tenant, c.tier = o.Uint64(data), data[8]
		case id == RetryAfterContextID && len(data) == retryAfterContextLen && int64(o.Uint64(data)) > 0:
			c.retryAfter = int64(o.Uint64(data))
		}
	}
	return c, nil
}

// patchSize back-fills the Size field of the header that starts at offset
// start, once the body length is known.
func patchSize(buf []byte, start int, order ByteOrder) {
	order.order().PutUint32(buf[start+8:start+12], uint32(len(buf)-start-HeaderSize))
}

// MarshalRequest encodes a full Request message (header + body) into buf.
// The body is written in place after the header — no intermediate encoder
// buffer — and the header's size field patched afterwards, so marshalling
// into a buffer with sufficient capacity performs no allocation.
func MarshalRequest(buf []byte, order ByteOrder, req *Request) []byte {
	start := len(buf)
	buf = AppendHeader(buf, Header{Type: MsgRequest, Order: order})
	var e Encoder
	e.Reset(order, buf)
	e.writeContexts(contexts{trace: req.TraceID, span: req.SpanID, tenant: req.TenantID, tier: req.TenantTier})
	e.WriteULong(req.RequestID)
	e.WriteBool(req.ResponseExpected)
	e.WriteOctetSeq(req.ObjectKey)
	e.WriteString(req.Operation)
	e.WriteULong(0) // principal: empty sequence
	e.WriteOctet(req.Priority)
	e.align(8) // body payload starts 8-aligned for simple demarshalling
	buf = append(e.buf, req.Payload...)
	patchSize(buf, start, order)
	return buf
}

// DecodeRequest decodes a request body (excluding the 12-byte header) into
// req, overwriting every field. ObjectKey and Payload alias body.
func DecodeRequest(order ByteOrder, body []byte, req *Request) error {
	d := Decoder{order: order, buf: body}
	c, err := d.readContexts()
	if err != nil {
		return err
	}
	req.TraceID, req.SpanID, req.TenantID, req.TenantTier = c.trace, c.span, c.tenant, c.tier
	if req.RequestID, err = d.ReadULong(); err != nil {
		return err
	}
	if req.ResponseExpected, err = d.ReadBool(); err != nil {
		return err
	}
	if req.ObjectKey, err = d.ReadOctetSeq(); err != nil {
		return err
	}
	op, err := d.readStringBytes()
	if err != nil {
		return err
	}
	req.Operation = internOp(op)
	if _, err = d.ReadOctetSeq(); err != nil { // principal
		return err
	}
	if req.Priority, err = d.ReadOctet(); err != nil {
		return err
	}
	d.align(8)
	req.Payload = nil
	if d.Remaining() > 0 {
		req.Payload = body[d.Pos():]
	}
	return nil
}

// opNames interns decoded operation names, so the steady-state request
// decode allocates no string: a server sees the same few names for its whole
// life. The table is copy-on-write — a hit is one load and one map lookup
// keyed by the raw bytes, which Go does without building the string — and
// bounded both ways, so a peer sending unique or huge names costs itself the
// per-request string it always did and the table nothing.
var opNames atomic.Pointer[map[string]string]

const (
	maxOpNames   = 256 // entries; later names are decoded, not kept
	maxOpNameLen = 64  // bytes; longer names are never kept
)

// internOp returns raw as a string, shared with every earlier request that
// named the same operation while the table has room for it.
func internOp(raw []byte) string {
	var old map[string]string // a nil map reads as empty
	p := opNames.Load()
	if p != nil {
		old = *p
	}
	if s, ok := old[string(raw)]; ok {
		return s
	}
	s := string(raw)
	if len(raw) > maxOpNameLen || len(old) >= maxOpNames {
		return s
	}
	grown := make(map[string]string, len(old)+1)
	for k, v := range old {
		grown[k] = v
	}
	grown[s] = s
	// A lost race drops this insert; the name is interned by a later request.
	opNames.CompareAndSwap(p, &grown)
	return s
}

// PriorityUnparsed is the priority PeekRequestInfo reports for a body it
// refuses: it lies outside the RT-CORBA priority band (1..31), so a caller
// that ignores ok and feeds the value to a band clamp cannot silently
// impersonate a valid priority.
const PriorityUnparsed byte = 0xFF

// RequestInfo is the part of a request admission control reads: the
// Request fields of the same names.
type RequestInfo struct {
	RequestID        uint32
	ResponseExpected bool
	Priority         byte
	TenantID         uint64
	TenantTier       uint8
}

// PeekRequestInfo is DecodeRequest reduced to a RequestInfo. A body
// DecodeRequest refuses yields (RequestInfo{Priority: PriorityUnparsed},
// false).
func PeekRequestInfo(order ByteOrder, body []byte) (RequestInfo, bool) {
	var req Request
	if DecodeRequest(order, body, &req) != nil {
		return RequestInfo{Priority: PriorityUnparsed}, false
	}
	return RequestInfo{
		RequestID: req.RequestID, ResponseExpected: req.ResponseExpected, Priority: req.Priority,
		TenantID: req.TenantID, TenantTier: req.TenantTier,
	}, true
}

// MarshalReply encodes a full Reply message (header + body) into buf, in
// place like MarshalRequest.
func MarshalReply(buf []byte, order ByteOrder, rep *Reply) []byte {
	start := len(buf)
	buf = AppendHeader(buf, Header{Type: MsgReply, Order: order})
	var e Encoder
	e.Reset(order, buf)
	e.writeContexts(contexts{trace: rep.TraceID, span: rep.SpanID, retryAfter: rep.RetryAfterNs})
	e.WriteULong(rep.RequestID)
	e.WriteULong(uint32(rep.Status))
	e.align(8)
	buf = append(e.buf, rep.Payload...)
	patchSize(buf, start, order)
	return buf
}

// DecodeReply decodes a reply body (excluding the header) into rep,
// overwriting every field. Payload aliases body.
func DecodeReply(order ByteOrder, body []byte, rep *Reply) error {
	d := Decoder{order: order, buf: body}
	c, err := d.readContexts()
	if err != nil {
		return err
	}
	rep.TraceID, rep.SpanID, rep.RetryAfterNs = c.trace, c.span, c.retryAfter
	if rep.RequestID, err = d.ReadULong(); err != nil {
		return err
	}
	status, err := d.ReadULong()
	if err != nil {
		return err
	}
	rep.Status = ReplyStatus(status)
	d.align(8)
	rep.Payload = nil
	if d.Remaining() > 0 {
		rep.Payload = body[d.Pos():]
	}
	return nil
}

// ReadMessageLimited reads one framed GIOP message from r, using buf as
// scratch when large enough, and returns the header and the body (which may
// alias buf). Bodies over maxBody fail with ErrTooLarge before any body byte
// is read — an endpoint whose buffers live in a fixed scoped region must
// reject what it cannot hold rather than grow. It is the plain two-read
// framing that FrameReader is checked against; the ORB read loops use
// FrameReader.
func ReadMessageLimited(r io.Reader, buf []byte, maxBody uint32) (Header, []byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			// Clean close between frames: callers match on bare EOF.
			return Header{}, nil, io.EOF
		}
		// Peer vanished mid-header: io.ErrUnexpectedEOF stays inspectable
		// through the wrap.
		return Header{}, nil, fmt.Errorf("giop: header: %w", err)
	}
	h, err := ParseHeader(hdr[:])
	if err != nil {
		return Header{}, nil, err
	}
	if h.Size > maxBody {
		return Header{}, nil, fmt.Errorf("%w: %d-byte body over the %d-byte endpoint bound", ErrTooLarge, h.Size, maxBody)
	}
	body := buf
	if cap(body) < int(h.Size) {
		body = make([]byte, h.Size)
	}
	body = body[:h.Size]
	if _, err := io.ReadFull(r, body); err != nil {
		return Header{}, nil, fmt.Errorf("giop: body: %w", err)
	}
	return h, body, nil
}
