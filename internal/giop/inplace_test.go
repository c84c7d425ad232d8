package giop

import (
	"bytes"
	"testing"
)

// referenceMarshalRequest is the pre-optimisation two-pass layout (body
// encoded separately, then appended after the header), kept as the oracle
// for the in-place marshaller.
func referenceMarshalRequest(buf []byte, order ByteOrder, req *Request) []byte {
	body := NewEncoder(order, nil)
	body.WriteULong(0)
	body.WriteULong(req.RequestID)
	body.WriteBool(req.ResponseExpected)
	body.WriteOctetSeq(req.ObjectKey)
	body.WriteString(req.Operation)
	body.WriteULong(0)
	body.WriteOctet(req.Priority)
	body.align(8)
	bodyLen := body.Len() + len(req.Payload)
	buf = AppendHeader(buf, Header{Type: MsgRequest, Order: order, Size: uint32(bodyLen)})
	buf = append(buf, body.Bytes()...)
	return append(buf, req.Payload...)
}

func referenceMarshalReply(buf []byte, order ByteOrder, rep *Reply) []byte {
	body := NewEncoder(order, nil)
	body.WriteULong(0)
	body.WriteULong(rep.RequestID)
	body.WriteULong(uint32(rep.Status))
	body.align(8)
	bodyLen := body.Len() + len(rep.Payload)
	buf = AppendHeader(buf, Header{Type: MsgReply, Order: order, Size: uint32(bodyLen)})
	buf = append(buf, body.Bytes()...)
	return append(buf, rep.Payload...)
}

// TestInPlaceMarshalMatchesReference checks the single-pass marshallers
// produce byte-identical wire frames to the two-pass reference, in both byte
// orders and for empty and non-empty payloads.
func TestInPlaceMarshalMatchesReference(t *testing.T) {
	for _, order := range bothOrders {
		for _, payload := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("ab"), 33)} {
			req := &Request{
				RequestID:        77,
				ResponseExpected: true,
				ObjectKey:        []byte("Echo/1"),
				Operation:        "echo",
				Priority:         21,
				Payload:          payload,
			}
			got := MarshalRequest(nil, order, req)
			want := referenceMarshalRequest(nil, order, req)
			if !bytes.Equal(got, want) {
				t.Errorf("%v request payload %d: in-place frame differs\n got %x\nwant %x",
					order, len(payload), got, want)
			}

			rep := &Reply{RequestID: 77, Status: ReplyNoException, Payload: payload}
			got = MarshalReply(nil, order, rep)
			want = referenceMarshalReply(nil, order, rep)
			if !bytes.Equal(got, want) {
				t.Errorf("%v reply payload %d: in-place frame differs", order, len(payload))
			}
		}
	}
}

// TestInPlaceMarshalOffsetIndependent checks marshalling after existing
// bytes in the buffer yields the same frame as into an empty buffer — the
// in-place encoder's alignment must be relative to the message start, not
// the buffer start.
func TestInPlaceMarshalOffsetIndependent(t *testing.T) {
	req := &Request{RequestID: 5, ObjectKey: []byte("k"), Operation: "op", Payload: []byte("data")}
	clean := MarshalRequest(nil, BigEndian, req)
	for _, pad := range []int{1, 3, 7, 13} {
		buf := make([]byte, pad)
		framed := MarshalRequest(buf, BigEndian, req)
		if !bytes.Equal(framed[pad:], clean) {
			t.Errorf("pad %d: frame differs from offset-0 frame", pad)
		}
	}
}

// TestEncoderReset checks Reset re-arms a used encoder with base-relative
// alignment at the new origin.
func TestEncoderReset(t *testing.T) {
	var e Encoder
	e.Reset(BigEndian, nil)
	e.WriteOctet(1) // 1 byte in; next ULong must pad 3
	e.WriteULong(0xAABBCCDD)
	first := append([]byte(nil), e.Bytes()...)
	if len(first) != 8 {
		t.Fatalf("first stream = %d bytes, want 8", len(first))
	}

	// Reset onto a buffer with 3 bytes of prefix: alignment must restart at
	// the origin, producing the same relative layout.
	prefix := []byte{9, 9, 9}
	e.Reset(BigEndian, prefix)
	e.WriteOctet(1)
	e.WriteULong(0xAABBCCDD)
	if e.Len() != 8 {
		t.Fatalf("Len after Reset = %d, want 8", e.Len())
	}
	if !bytes.Equal(e.Bytes()[3:], first) {
		t.Errorf("stream after Reset differs: %x vs %x", e.Bytes()[3:], first)
	}
}

// TestDecodeIntoMatchesUnmarshal decodes the same body into a fresh struct
// and into a reused one holding stale fields: every field must agree.
func TestDecodeIntoMatchesUnmarshal(t *testing.T) {
	req := &Request{
		RequestID: 9, ResponseExpected: true, ObjectKey: []byte("svc"),
		Operation: "do", Priority: 3, Payload: []byte("payload!"),
	}
	frame := MarshalRequest(nil, LittleEndian, req)
	body := frame[HeaderSize:]

	fresh := new(Request)
	if err := DecodeRequest(LittleEndian, body, fresh); err != nil {
		t.Fatal(err)
	}
	// Reused struct with stale fields from a previous decode.
	into := Request{RequestID: 999, Operation: "stale", Payload: []byte("stale"), ObjectKey: []byte("stale")}
	if err := DecodeRequest(LittleEndian, body, &into); err != nil {
		t.Fatal(err)
	}
	if into.RequestID != fresh.RequestID || into.Operation != fresh.Operation ||
		!bytes.Equal(into.ObjectKey, fresh.ObjectKey) || !bytes.Equal(into.Payload, fresh.Payload) ||
		into.Priority != fresh.Priority || into.ResponseExpected != fresh.ResponseExpected {
		t.Errorf("decode into reused = %+v, into fresh = %+v", into, fresh)
	}

	rep := &Reply{RequestID: 9, Status: ReplyUserException}
	rframe := MarshalReply(nil, LittleEndian, rep)
	var rinto Reply
	rinto.Payload = []byte("stale")
	if err := DecodeReply(LittleEndian, rframe[HeaderSize:], &rinto); err != nil {
		t.Fatal(err)
	}
	if rinto.RequestID != 9 || rinto.Status != ReplyUserException || rinto.Payload != nil {
		t.Errorf("DecodeReply = %+v; stale payload must be cleared", rinto)
	}
}

// TestBufferPoolRecycles checks Get/Put keep capacity and truncate length.
func TestBufferPoolRecycles(t *testing.T) {
	b := GetBuffer()
	if len(b.B) != 0 {
		t.Fatalf("fresh buffer len = %d, want 0", len(b.B))
	}
	b.B = append(b.B, bytes.Repeat([]byte("z"), 4000)...)
	PutBuffer(b)
	b2 := GetBuffer()
	if len(b2.B) != 0 {
		t.Errorf("recycled buffer len = %d, want 0", len(b2.B))
	}
	PutBuffer(b2)
}

// TestMarshalIntoPooledBufferAllocFree checks the satellite goal: a warmed
// pooled buffer plus in-place marshalling is allocation-free.
func TestMarshalIntoPooledBufferAllocFree(t *testing.T) {
	req := &Request{
		RequestID: 1, ResponseExpected: true, ObjectKey: []byte("Echo/1"),
		Operation: "echo", Priority: 15, Payload: bytes.Repeat([]byte("p"), 256),
	}
	// Warm the pool.
	b := GetBuffer()
	b.B = MarshalRequest(b.B, BigEndian, req)
	PutBuffer(b)

	allocs := testing.AllocsPerRun(200, func() {
		wb := GetBuffer()
		wb.B = MarshalRequest(wb.B, BigEndian, req)
		PutBuffer(wb)
	})
	if allocs != 0 {
		t.Errorf("marshal into pooled buffer allocates %.1f/op, want 0", allocs)
	}
}
