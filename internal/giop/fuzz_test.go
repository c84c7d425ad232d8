package giop

import "testing"

// FuzzPeekRequestInfo checks the admission-time peek against the full
// request decoder on arbitrary bodies. PeekRequestInfo must never panic, and
// whenever DecodeRequest accepts a body the peek must accept it too and
// report the same request id, response flag, priority and tenant
// classification — the server admits and queues a request on what the peek
// says, then serves it on what the decoder says. The seed corpus (marshalled
// requests in both byte orders, with and without the trace and tenant
// service contexts) runs with the tier-1 tests; `make fuzz-smoke` explores.
func FuzzPeekRequestInfo(f *testing.F) {
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
		order := BigEndian
		if little {
			order = LittleEndian
		}
		info, ok := PeekRequestInfo(order, body)
		if !ok && info.Priority != PriorityUnparsed {
			t.Fatalf("peek refused the body but left priority %d, want PriorityUnparsed", info.Priority)
		}
		var req Request
		if DecodeRequest(order, body, &req) != nil {
			return
		}
		if !ok {
			t.Fatalf("DecodeRequest accepted a body PeekRequestInfo refused: %+v", req)
		}
		want := RequestInfo{
			RequestID: req.RequestID, ResponseExpected: req.ResponseExpected, Priority: req.Priority,
			TenantID: req.TenantID, TenantTier: req.TenantTier,
		}
		if info != want {
			t.Fatalf("peek %+v, decode %+v", info, want)
		}
	})
}
