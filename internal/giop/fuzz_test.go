package giop

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// The fuzz targets below check the decoders on arbitrary bodies: they never
// panic, and a body they accept re-marshals to one that decodes to an equal
// message — so nothing a decoder reports can be lost or changed on its way
// back to the wire. Their seed corpora (marshalled messages in both byte
// orders, with and without each service context) run with the tier-1 tests;
// `make fuzz-smoke` explores.

func orderOf(little bool) ByteOrder {
	if little {
		return LittleEndian
	}
	return BigEndian
}

// FuzzDecodeRequest: the one reader of the request grammar, which the server
// runs on every request before admitting it.
func FuzzDecodeRequest(f *testing.F) {
	for _, order := range []ByteOrder{BigEndian, LittleEndian} {
		for _, ctx := range []struct{ trace, tenant uint64 }{{0, 0}, {0xABC, 0}, {0, 42}, {0xABC, 42}} {
			req := &Request{
				RequestID: 77, ResponseExpected: ctx.trace == 0,
				ObjectKey: []byte("echo"), Operation: "ping", Priority: 19,
				TraceID: ctx.trace, SpanID: ctx.trace + 1,
				TenantID: ctx.tenant, TenantTier: 2,
				Payload: []byte("payload"),
			}
			f.Add(MarshalRequest(nil, order, req)[HeaderSize:], order == LittleEndian)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, little bool) {
		order := orderOf(little)
		var req Request
		if DecodeRequest(order, body, &req) != nil {
			return
		}
		var again Request
		if err := DecodeRequest(order, MarshalRequest(nil, order, &req)[HeaderSize:], &again); err != nil {
			t.Fatalf("re-marshalled %+v does not decode: %v", req, err)
		}
		if !bytes.Equal(again.ObjectKey, req.ObjectKey) || !bytes.Equal(again.Payload, req.Payload) {
			t.Fatalf("key/payload %q/%q came back as %q/%q", req.ObjectKey, req.Payload, again.ObjectKey, again.Payload)
		}
		req.ObjectKey, req.Payload, again.ObjectKey, again.Payload = nil, nil, nil, nil
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("decoded %+v, re-marshalled and decoded %+v", req, again)
		}
	})
}

// FuzzDecodeReply: the client's reader of every reply, retry-after hints
// included.
func FuzzDecodeReply(f *testing.F) {
	for _, order := range []ByteOrder{BigEndian, LittleEndian} {
		for _, ctx := range []struct{ trace, retryAfter int64 }{{0, 0}, {0xABC, 0}, {0, 5e6}, {0xABC, 5e6}} {
			rep := &Reply{
				RequestID: 77, Status: ReplySystemException,
				TraceID: uint64(ctx.trace), SpanID: uint64(ctx.trace + 1),
				RetryAfterNs: ctx.retryAfter, Payload: []byte("payload"),
			}
			f.Add(MarshalReply(nil, order, rep)[HeaderSize:], order == LittleEndian)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, little bool) {
		order := orderOf(little)
		var rep Reply
		if DecodeReply(order, body, &rep) != nil {
			return
		}
		var again Reply
		if err := DecodeReply(order, MarshalReply(nil, order, &rep)[HeaderSize:], &again); err != nil {
			t.Fatalf("re-marshalled %+v does not decode: %v", rep, err)
		}
		if !bytes.Equal(again.Payload, rep.Payload) {
			t.Fatalf("payload %q came back as %q", rep.Payload, again.Payload)
		}
		rep.Payload, again.Payload = nil, nil
		if !reflect.DeepEqual(again, rep) {
			t.Fatalf("decoded %+v, re-marshalled and decoded %+v", rep, again)
		}
	})
}

// FuzzDecodeLocate: the header parser and the locate readers, on whole
// messages. A header that parses re-encodes to itself; a LocateRequest or
// LocateReply body that decodes re-marshals to one that decodes to an equal
// message; and a forwarding count past MaxForwardAddrs, or past what the
// bytes after it could hold (a ulong length each), is refused with no list
// built.
func FuzzDecodeLocate(f *testing.F) {
	addrs := make([]string, MaxForwardAddrs)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("replica-%d:2809", i)
	}
	for _, order := range []ByteOrder{BigEndian, LittleEndian} {
		f.Add(MarshalLocateRequest(nil, order, &LocateRequest{RequestID: 5, ObjectKey: []byte("echo")}))
		f.Add(MarshalLocateReply(nil, order, &LocateReply{RequestID: 5, Status: LocateObjectHere}))
		for _, n := range []int{0, 1, MaxForwardAddrs} {
			f.Add(MarshalLocateReply(nil, order, &LocateReply{RequestID: 5, Status: LocateObjectForward, Forward: addrs[:n]}))
		}
		hostile := MarshalLocateReply(nil, order, &LocateReply{RequestID: 5, Status: LocateObjectForward, Forward: addrs[:1]})
		order.order().PutUint32(hostile[HeaderSize+8:], MaxForwardAddrs+1)
		f.Add(hostile)
	}
	f.Fuzz(func(t *testing.T, msg []byte) {
		h, err := ParseHeader(msg)
		if err != nil {
			return
		}
		if again, err := ParseHeader(AppendHeader(nil, h)); err != nil || again != h {
			t.Fatalf("header %+v re-encoded parses as %+v, %v", h, again, err)
		}
		body := msg[HeaderSize:]
		if int(h.Size) < len(body) {
			body = body[:h.Size]
		}
		switch h.Type {
		case MsgLocateRequest:
			var req, again LocateRequest
			if DecodeLocateRequest(h.Order, body, &req) != nil {
				return
			}
			if err := DecodeLocateRequest(h.Order, MarshalLocateRequest(nil, h.Order, &req)[HeaderSize:], &again); err != nil {
				t.Fatalf("re-marshalled %+v does not decode: %v", req, err)
			}
			if again.RequestID != req.RequestID || !bytes.Equal(again.ObjectKey, req.ObjectKey) {
				t.Fatalf("decoded %+v, re-marshalled and decoded %+v", req, again)
			}
		case MsgLocateReply:
			rep := LocateReply{Forward: []string{"stale"}}
			err := DecodeLocateReply(h.Order, body, &rep)
			if len(body) >= 12 && LocateStatus(h.Order.order().Uint32(body[4:])) == LocateObjectForward {
				n := h.Order.order().Uint32(body[8:])
				if n > MaxForwardAddrs || int(n) > (len(body)-12)/4 {
					if err == nil || rep.Forward != nil {
						t.Fatalf("forward count %d over %d bytes: err %v, list %q; want refused with no list", n, len(body)-12, err, rep.Forward)
					}
					return
				}
			}
			if err != nil {
				return
			}
			var again LocateReply
			if err := DecodeLocateReply(h.Order, MarshalLocateReply(nil, h.Order, &rep)[HeaderSize:], &again); err != nil {
				t.Fatalf("re-marshalled %+v does not decode: %v", rep, err)
			}
			if !reflect.DeepEqual(again, rep) {
				t.Fatalf("decoded %+v, re-marshalled and decoded %+v", rep, again)
			}
		}
	})
}
