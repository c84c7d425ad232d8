package giop

import "testing"

// A request with a zero trace id and no tenant marshals an empty
// service-context sequence; the peek must walk straight past it.
func TestPeekRequestInfoZeroServiceContexts(t *testing.T) {
	wire := MarshalRequest(nil, BigEndian, &Request{
		RequestID: 1, ResponseExpected: true,
		ObjectKey: []byte("k"), Operation: "op", Priority: 5,
	})
	body := wire[HeaderSize:]
	var d = Decoder{order: BigEndian, buf: body}
	if nctx, err := d.ReadULong(); err != nil || nctx != 0 {
		t.Fatalf("expected zero service contexts on the wire, got %d (err %v)", nctx, err)
	}
	if info, ok := PeekRequestInfo(BigEndian, body); !ok || info.Priority != 5 {
		t.Errorf("peek = (%+v, %v), want priority 5", info, ok)
	}
}

// The sentinel must stay outside the RT-CORBA priority band so a careless
// caller cannot mistake it for a real priority.
func TestPriorityUnparsedOutOfBand(t *testing.T) {
	if PriorityUnparsed >= 1 && PriorityUnparsed <= 31 {
		t.Fatalf("PriorityUnparsed (%d) lies inside the priority band", PriorityUnparsed)
	}
}
