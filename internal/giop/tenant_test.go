package giop

import (
	"bytes"
	"errors"
	"testing"
)

// A tenanted request round-trips its classification through the service
// context, alongside the trace context when both are present.
func TestTenantContextRoundTrip(t *testing.T) {
	for _, order := range []ByteOrder{BigEndian, LittleEndian} {
		for _, traced := range []bool{false, true} {
			req := &Request{
				RequestID: 11, ResponseExpected: true,
				ObjectKey: []byte("echo"), Operation: "ping",
				Priority: 21, Payload: []byte("payload"),
				TenantID: 0xDEADBEEF01, TenantTier: 2,
			}
			if traced {
				req.TraceID, req.SpanID = 0x1111, 0x2222
			}
			wire := MarshalRequest(nil, order, req)
			var got Request
			if err := DecodeRequest(order, wire[HeaderSize:], &got); err != nil {
				t.Fatalf("order %v traced %v: decode: %v", order, traced, err)
			}
			if got.TenantID != req.TenantID || got.TenantTier != req.TenantTier {
				t.Errorf("order %v traced %v: tenant = (%#x, %d), want (%#x, %d)",
					order, traced, got.TenantID, got.TenantTier, req.TenantID, req.TenantTier)
			}
			if got.TraceID != req.TraceID || got.Priority != req.Priority {
				t.Errorf("order %v traced %v: trace/priority corrupted: %+v", order, traced, got)
			}
			if !bytes.Equal(got.Payload, req.Payload) {
				t.Errorf("order %v traced %v: payload corrupted", order, traced)
			}
		}
	}
}

// A zero tenant id omits the context entirely: the wire form is byte-identical
// to a tenant-unaware peer's, so the classification costs nothing when absent.
func TestTenantContextZeroCostWhenAbsent(t *testing.T) {
	plain := &Request{
		RequestID: 3, ResponseExpected: true,
		ObjectKey: []byte("k"), Operation: "op", Priority: 7,
	}
	wire := MarshalRequest(nil, BigEndian, plain)
	d := Decoder{order: BigEndian, buf: wire[HeaderSize:]}
	if nctx, err := d.ReadULong(); err != nil || nctx != 0 {
		t.Fatalf("untenanted+untraced request carries %d contexts (err %v), want 0", nctx, err)
	}
	// Tier without an id is not a tenant: still omitted.
	tiered := &Request{
		RequestID: 3, ResponseExpected: true,
		ObjectKey: []byte("k"), Operation: "op", Priority: 7,
		TenantTier: 2,
	}
	if !bytes.Equal(MarshalRequest(nil, BigEndian, tiered), wire) {
		t.Error("tier-without-id changed the wire form; classification must key on the id")
	}
}

// PeekRequestInfo extracts everything admission control needs — request id,
// response flag, priority, tenant — in one walk, with and without contexts.
func TestPeekRequestInfoRoundTrip(t *testing.T) {
	for _, order := range []ByteOrder{BigEndian, LittleEndian} {
		for _, tc := range []struct {
			name   string
			tenant uint64
			tier   uint8
			trace  uint64
			oneway bool
		}{
			{name: "plain"},
			{name: "tenanted", tenant: 42, tier: 1},
			{name: "traced+tenanted", tenant: 7, tier: 2, trace: 0xABC},
			{name: "oneway", tenant: 9, oneway: true},
		} {
			req := &Request{
				RequestID: 77, ResponseExpected: !tc.oneway,
				ObjectKey: []byte("echo"), Operation: "ping",
				Priority: 19, Payload: []byte("xy"),
				TenantID: tc.tenant, TenantTier: tc.tier,
				TraceID: tc.trace, SpanID: tc.trace,
			}
			wire := MarshalRequest(nil, order, req)
			info, ok := PeekRequestInfo(order, wire[HeaderSize:])
			if !ok {
				t.Fatalf("%s order %v: peek failed", tc.name, order)
			}
			if info.RequestID != 77 || info.ResponseExpected != !tc.oneway ||
				info.Priority != 19 || info.TenantID != tc.tenant || info.TenantTier != tc.tier {
				t.Errorf("%s order %v: info = %+v", tc.name, order, info)
			}
		}
	}
}

// PeekRequestInfo must never allocate: it runs per request on the dispatch
// path before the scoped demarshal.
func TestPeekRequestInfoAllocFree(t *testing.T) {
	req := &Request{
		RequestID: 5, ResponseExpected: true,
		ObjectKey: []byte("echo"), Operation: "ping",
		Priority: 12, TenantID: 31337, TenantTier: 1,
		TraceID: 1, SpanID: 2,
	}
	wire := MarshalRequest(nil, BigEndian, req)
	body := wire[HeaderSize:]
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := PeekRequestInfo(BigEndian, body); !ok {
			t.Fatal("peek failed")
		}
	})
	if allocs != 0 {
		t.Errorf("PeekRequestInfo allocates %.1f objects/op, want 0", allocs)
	}
}

// Truncating the body anywhere before the priority octet must fail the peek
// with the sentinel priority, never a fabricated one; so must an operation
// name that lost its NUL terminator, which DecodeRequest refuses too.
func TestPeekRequestInfoTruncated(t *testing.T) {
	req := &Request{
		RequestID: 8, ResponseExpected: true,
		ObjectKey: []byte("servant"), Operation: "operation",
		Priority: 17, TenantID: 99, TenantTier: 2,
	}
	wire := MarshalRequest(nil, BigEndian, req)
	body := wire[HeaderSize:]
	if info, ok := PeekRequestInfo(BigEndian, body); !ok || info.Priority != 17 {
		t.Fatalf("full body peek = (%+v, %v)", info, ok)
	}
	for n := 0; n < len(body); n++ {
		info, ok := PeekRequestInfo(BigEndian, body[:n])
		if ok && info.Priority == 17 {
			// Only the trailing alignment pad may be cut and still succeed.
			continue
		}
		if ok {
			t.Fatalf("truncated to %d bytes: peek fabricated %+v", n, info)
		}
		if info.Priority != PriorityUnparsed {
			t.Fatalf("truncated to %d bytes: priority %d, want sentinel", n, info.Priority)
		}
	}
	unterminated := bytes.Clone(body)
	unterminated[bytes.Index(unterminated, []byte("operation\x00"))+len("operation")] = '!'
	if info, ok := PeekRequestInfo(BigEndian, unterminated); ok || info.Priority != PriorityUnparsed {
		t.Errorf("unterminated operation: peek = (%+v, %v), want refused", info, ok)
	}
	if err := DecodeRequest(BigEndian, unterminated, new(Request)); !errors.Is(err, ErrBadString) {
		t.Errorf("unterminated operation: DecodeRequest err = %v, want ErrBadString", err)
	}
}

// A context count larger than the remaining bytes could possibly encode is
// refused up front instead of walked, by the peek and by both decoders.
func TestPeekRequestInfoOversizedContextCount(t *testing.T) {
	accepts := map[string]func(body []byte) bool{
		"PeekRequestInfo": func(b []byte) bool { _, ok := PeekRequestInfo(BigEndian, b); return ok },
		"DecodeRequest":   func(b []byte) bool { return DecodeRequest(BigEndian, b, new(Request)) == nil },
		"DecodeReply":     func(b []byte) bool { return DecodeReply(BigEndian, b, new(Reply)) == nil },
	}
	for _, nctx := range []uint32{2, 1000, 0xFFFFFFFF} {
		var e Encoder
		e.Reset(BigEndian, nil)
		e.WriteULong(nctx)
		e.WriteULong(TenantContextID)
		e.WriteULong(4)
		e.WriteOctet(1)
		e.WriteOctet(2)
		e.WriteOctet(3)
		e.WriteOctet(4)
		for name, accept := range accepts {
			if accept(e.Bytes()) {
				t.Errorf("nctx=%d: %s accepted a hostile context count", nctx, name)
			}
		}
	}
}

// A tenant context whose data length is wrong is ignored, not misread.
func TestTenantContextMalformedLengthIgnored(t *testing.T) {
	var e Encoder
	e.Reset(BigEndian, nil)
	e.WriteULong(1) // one context
	e.WriteULong(TenantContextID)
	e.WriteOctetSeq([]byte{1, 2, 3}) // wrong length: not tenantContextLen
	e.WriteULong(21)                 // request id
	e.WriteBool(true)
	e.WriteOctetSeq([]byte("k"))
	e.WriteString("op")
	e.WriteULong(0) // principal
	e.WriteOctet(13)
	info, ok := PeekRequestInfo(BigEndian, e.Bytes())
	if !ok || info.TenantID != 0 || info.Priority != 13 {
		t.Errorf("malformed tenant data: info = (%+v, %v), want ignored context", info, ok)
	}
	var req Request
	if err := DecodeRequest(BigEndian, e.Bytes(), &req); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if req.TenantID != 0 {
		t.Errorf("decode read tenant %d from malformed data, want 0", req.TenantID)
	}
}
