package giop

import "fmt"

// GIOP 1.0 LocateRequest/LocateReply: a lightweight existence probe for an
// object key, used by clients to confirm a servant is reachable before
// issuing requests. A LocateObjectForward reply additionally carries the
// forwarding-address list — the endpoints of the server group actually
// hosting the object — which is how a group directory redirects clients to
// live replicas (package cluster).

// Locate status values (GIOP 1.0).
const (
	LocateUnknownObject LocateStatus = iota
	LocateObjectHere
	LocateObjectForward
)

// LocateStatus reports the outcome of a LocateRequest.
type LocateStatus uint32

// String returns the GIOP spelling of the status.
func (s LocateStatus) String() string {
	switch s {
	case LocateUnknownObject:
		return "UNKNOWN_OBJECT"
	case LocateObjectHere:
		return "OBJECT_HERE"
	case LocateObjectForward:
		return "OBJECT_FORWARD"
	default:
		return "LocateStatus(?)"
	}
}

// LocateRequest asks whether the server hosts the object key.
type LocateRequest struct {
	// RequestID correlates the reply.
	RequestID uint32
	// ObjectKey addresses the probed servant.
	ObjectKey []byte
}

// MaxForwardAddrs bounds the forwarding-address list of one LocateReply: a
// hostile count above it is rejected before any allocation.
const MaxForwardAddrs = 64

// LocateReply answers a LocateRequest.
type LocateReply struct {
	// RequestID correlates the request.
	RequestID uint32
	// Status reports where the object is.
	Status LocateStatus
	// Forward lists the endpoints the client should contact instead; it
	// rides the wire only when Status is LocateObjectForward. Replies with
	// any other status marshal exactly as they always have (no body beyond
	// the status), and a forward-status reply without a body decodes as an
	// empty list.
	Forward []string
}

// MarshalLocateRequest encodes a full LocateRequest message into buf, in
// place (see MarshalRequest).
func MarshalLocateRequest(buf []byte, order ByteOrder, req *LocateRequest) []byte {
	start := len(buf)
	buf = AppendHeader(buf, Header{Type: MsgLocateRequest, Order: order})
	var e Encoder
	e.Reset(order, buf)
	e.WriteULong(req.RequestID)
	e.WriteOctetSeq(req.ObjectKey)
	buf = e.buf
	patchSize(buf, start, order)
	return buf
}

// DecodeLocateRequest decodes a LocateRequest body into req. The ObjectKey
// aliases body.
func DecodeLocateRequest(order ByteOrder, body []byte, req *LocateRequest) error {
	d := Decoder{order: order, buf: body}
	var err error
	if req.RequestID, err = d.ReadULong(); err != nil {
		return err
	}
	if req.ObjectKey, err = d.ReadOctetSeq(); err != nil {
		return err
	}
	return nil
}

// MarshalLocateReply encodes a full LocateReply message into buf, in place.
func MarshalLocateReply(buf []byte, order ByteOrder, rep *LocateReply) []byte {
	start := len(buf)
	buf = AppendHeader(buf, Header{Type: MsgLocateReply, Order: order})
	var e Encoder
	e.Reset(order, buf)
	e.WriteULong(rep.RequestID)
	e.WriteULong(uint32(rep.Status))
	if rep.Status == LocateObjectForward {
		e.WriteULong(uint32(len(rep.Forward)))
		for _, addr := range rep.Forward {
			e.WriteString(addr)
		}
	}
	buf = e.buf
	patchSize(buf, start, order)
	return buf
}

// DecodeLocateReply decodes a LocateReply body into rep. rep may be reused
// across frames: Forward is reset on every call.
func DecodeLocateReply(order ByteOrder, body []byte, rep *LocateReply) error {
	d := Decoder{order: order, buf: body}
	id, err := d.ReadULong()
	if err != nil {
		return err
	}
	status, err := d.ReadULong()
	if err != nil {
		return err
	}
	rep.RequestID = id
	rep.Status = LocateStatus(status)
	rep.Forward = nil
	if rep.Status != LocateObjectForward || d.Remaining() == 0 {
		// Non-forward replies carry no body past the status; a bodiless
		// forward reply (the pre-forwarding wire form) means an empty list.
		return nil
	}
	n, err := d.ReadULong()
	if err != nil {
		return err
	}
	// Hostile-length guard: reject counts past the hard bound or past what
	// the remaining bytes could possibly hold (each address costs at least a
	// ulong length prefix) before allocating anything.
	if n > MaxForwardAddrs || int(n) > d.Remaining()/4 {
		return fmt.Errorf("%w: forward count %d", ErrTruncated, n)
	}
	if n == 0 {
		return nil
	}
	fwd := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		addr, err := d.ReadString()
		if err != nil {
			return err
		}
		fwd = append(fwd, addr)
	}
	rep.Forward = fwd
	return nil
}
