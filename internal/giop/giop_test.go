package giop

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

var bothOrders = []ByteOrder{BigEndian, LittleEndian}

func TestByteOrderString(t *testing.T) {
	if BigEndian.String() != "big-endian" || LittleEndian.String() != "little-endian" {
		t.Error("ByteOrder.String wrong")
	}
}

func TestCDRPrimitivesRoundTrip(t *testing.T) {
	for _, order := range bothOrders {
		t.Run(order.String(), func(t *testing.T) {
			e := NewEncoder(order, nil)
			e.WriteOctet(0xAB)
			e.WriteBool(true)
			e.WriteBool(false)
			e.WriteULong(4000000000)
			e.WriteULongLong(18000000000000000000)
			e.WriteDouble(-2.718281828)
			e.WriteString("hello, CDR")
			e.WriteOctetSeq([]byte{1, 2, 3})
			if e.order != order {
				t.Fatalf("order = %v", e.order)
			}

			d := NewDecoder(order, e.Bytes())
			if v, err := d.ReadOctet(); err != nil || v != 0xAB {
				t.Errorf("octet = %x, %v", v, err)
			}
			if v, err := d.ReadBool(); err != nil || !v {
				t.Errorf("bool true = %v, %v", v, err)
			}
			if v, err := d.ReadBool(); err != nil || v {
				t.Errorf("bool false = %v, %v", v, err)
			}
			if v, err := d.ReadULong(); err != nil || v != 4000000000 {
				t.Errorf("ulong = %d, %v", v, err)
			}
			if v, err := d.ReadULongLong(); err != nil || v != 18000000000000000000 {
				t.Errorf("ulonglong = %d, %v", v, err)
			}
			if v, err := d.ReadDouble(); err != nil || v != -2.718281828 {
				t.Errorf("double = %v, %v", v, err)
			}
			if v, err := d.ReadString(); err != nil || v != "hello, CDR" {
				t.Errorf("string = %q, %v", v, err)
			}
			if v, err := d.ReadOctetSeq(); err != nil || !bytes.Equal(v, []byte{1, 2, 3}) {
				t.Errorf("octetseq = %v, %v", v, err)
			}
			if d.Remaining() != 0 {
				t.Errorf("remaining = %d", d.Remaining())
			}
		})
	}
}

func TestCDRAlignment(t *testing.T) {
	e := NewEncoder(BigEndian, nil)
	e.WriteOctet(1) // offset 0
	e.WriteULong(7) // must align to 4
	if n := len(e.Bytes()); n != 8 {
		t.Errorf("encoded len = %d, want 8 (3 pad bytes)", n)
	}
	e.WriteOctet(2)    // offset 8
	e.WriteDouble(1.5) // must align to 16
	if n := len(e.Bytes()); n != 24 {
		t.Errorf("encoded len = %d, want 24", n)
	}

	d := NewDecoder(BigEndian, e.Bytes())
	if v, _ := d.ReadOctet(); v != 1 {
		t.Error("octet 1")
	}
	if v, _ := d.ReadULong(); v != 7 {
		t.Error("ulong 7")
	}
	if v, _ := d.ReadOctet(); v != 2 {
		t.Error("octet 2")
	}
	if v, _ := d.ReadDouble(); v != 1.5 {
		t.Error("double 1.5")
	}
}

func TestCDRTruncation(t *testing.T) {
	e := NewEncoder(BigEndian, nil)
	e.WriteULong(42)
	full := e.Bytes()

	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(BigEndian, full[:cut])
		if _, err := d.ReadULong(); !errors.Is(err, ErrTruncated) {
			t.Errorf("cut %d: err = %v, want ErrTruncated", cut, err)
		}
	}
	// Truncated string payload.
	e2 := NewEncoder(BigEndian, nil)
	e2.WriteString("abcdef")
	d := NewDecoder(BigEndian, e2.Bytes()[:6])
	if _, err := d.ReadString(); !errors.Is(err, ErrTruncated) {
		t.Errorf("string err = %v, want ErrTruncated", err)
	}
}

func TestCDRBadString(t *testing.T) {
	// Zero length (missing NUL accounting).
	e := NewEncoder(BigEndian, nil)
	e.WriteULong(0)
	if _, err := NewDecoder(BigEndian, e.Bytes()).ReadString(); !errors.Is(err, ErrBadString) {
		t.Errorf("zero-length err = %v", err)
	}
	// Missing NUL terminator.
	e2 := NewEncoder(BigEndian, nil)
	e2.WriteULong(3)
	e2.WriteOctet('a')
	e2.WriteOctet('b')
	e2.WriteOctet('c')
	if _, err := NewDecoder(BigEndian, e2.Bytes()).ReadString(); !errors.Is(err, ErrBadString) {
		t.Errorf("missing NUL err = %v", err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	for _, order := range bothOrders {
		h := Header{Type: MsgReply, Order: order, Size: 1234}
		wire := AppendHeader(nil, h)
		if len(wire) != HeaderSize {
			t.Fatalf("header size = %d", len(wire))
		}
		got, err := ParseHeader(wire)
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Errorf("got %+v, want %+v", got, h)
		}
	}
}

func TestHeaderErrors(t *testing.T) {
	if _, err := ParseHeader([]byte("GIO")); !errors.Is(err, ErrTruncated) {
		t.Errorf("short err = %v", err)
	}
	bad := AppendHeader(nil, Header{Type: MsgRequest})
	bad[0] = 'X'
	if _, err := ParseHeader(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic err = %v", err)
	}
	badVer := AppendHeader(nil, Header{Type: MsgRequest})
	badVer[4] = 9
	if _, err := ParseHeader(badVer); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version err = %v", err)
	}
	huge := AppendHeader(nil, Header{Type: MsgRequest, Size: MaxMessageSize + 1})
	if _, err := ParseHeader(huge); !errors.Is(err, ErrTooLarge) {
		t.Errorf("size err = %v", err)
	}
}

func TestMsgTypeAndStatusStrings(t *testing.T) {
	names := map[MsgType]string{
		MsgRequest: "Request", MsgReply: "Reply", MsgCancelRequest: "CancelRequest",
		MsgLocateRequest: "LocateRequest", MsgLocateReply: "LocateReply",
		MsgCloseConnection: "CloseConnection", MsgMessageError: "MessageError",
		MsgType(99): "MsgType(99)",
	}
	for mt, want := range names {
		if got := mt.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", mt, got, want)
		}
	}
	statuses := map[ReplyStatus]string{
		ReplyNoException: "NO_EXCEPTION", ReplyUserException: "USER_EXCEPTION",
		ReplySystemException: "SYSTEM_EXCEPTION", ReplyLocationForward: "LOCATION_FORWARD",
		ReplyStatus(9): "ReplyStatus(9)",
	}
	for s, want := range statuses {
		if got := s.String(); got != want {
			t.Errorf("status.String() = %q, want %q", got, want)
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, order := range bothOrders {
		t.Run(order.String(), func(t *testing.T) {
			req := &Request{
				RequestID:        77,
				ResponseExpected: true,
				ObjectKey:        []byte("poa/echo"),
				Operation:        "echo",
				Payload:          bytes.Repeat([]byte{0xCD}, 32),
			}
			wire := MarshalRequest(nil, order, req)
			h, err := ParseHeader(wire)
			if err != nil {
				t.Fatal(err)
			}
			if h.Type != MsgRequest || int(h.Size) != len(wire)-HeaderSize {
				t.Fatalf("header = %+v, wire %d", h, len(wire))
			}
			got := new(Request)
			if err := DecodeRequest(h.Order, wire[HeaderSize:], got); err != nil {
				t.Fatal(err)
			}
			if got.RequestID != 77 || !got.ResponseExpected || string(got.ObjectKey) != "poa/echo" ||
				got.Operation != "echo" || !bytes.Equal(got.Payload, req.Payload) {
				t.Errorf("request = %+v", got)
			}
		})
	}
}

func TestReplyRoundTrip(t *testing.T) {
	for _, order := range bothOrders {
		rep := &Reply{RequestID: 77, Status: ReplyNoException, Payload: []byte("result")}
		wire := MarshalReply(nil, order, rep)
		h, err := ParseHeader(wire)
		if err != nil {
			t.Fatal(err)
		}
		if h.Type != MsgReply {
			t.Fatalf("type = %v", h.Type)
		}
		got := new(Reply)
		if err := DecodeReply(h.Order, wire[HeaderSize:], got); err != nil {
			t.Fatal(err)
		}
		if got.RequestID != 77 || got.Status != ReplyNoException || !bytes.Equal(got.Payload, rep.Payload) {
			t.Errorf("reply = %+v", got)
		}
	}
}

func TestEmptyPayloads(t *testing.T) {
	req := &Request{RequestID: 1, Operation: "ping", ObjectKey: []byte("k")}
	wire := MarshalRequest(nil, BigEndian, req)
	h, _ := ParseHeader(wire)
	got := new(Request)
	if err := DecodeRequest(h.Order, wire[HeaderSize:], got); err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 0 {
		t.Errorf("payload = %v, want empty", got.Payload)
	}

	rep := &Reply{RequestID: 1}
	wire = MarshalReply(nil, BigEndian, rep)
	h, _ = ParseHeader(wire)
	gotRep := new(Reply)
	if err := DecodeReply(h.Order, wire[HeaderSize:], gotRep); err != nil {
		t.Fatal(err)
	}
	if len(gotRep.Payload) != 0 {
		t.Errorf("payload = %v, want empty", gotRep.Payload)
	}
}

func TestReadMessage(t *testing.T) {
	req := &Request{RequestID: 5, Operation: "op", ObjectKey: []byte("k"), Payload: []byte{1, 2, 3, 4}}
	wire := MarshalRequest(nil, LittleEndian, req)

	h, body, err := ReadMessageLimited(bytes.NewReader(wire), make([]byte, 16), MaxMessageSize)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != MsgRequest || h.Order != LittleEndian {
		t.Errorf("header = %+v", h)
	}
	got := new(Request)
	if err := DecodeRequest(h.Order, body, got); err != nil {
		t.Fatal(err)
	}
	if got.RequestID != 5 || got.Operation != "op" {
		t.Errorf("request = %+v", got)
	}

	// Short reads surface as errors.
	if _, _, err := ReadMessageLimited(bytes.NewReader(wire[:HeaderSize+2]), nil, MaxMessageSize); err == nil {
		t.Error("truncated body accepted")
	}
	if _, _, err := ReadMessageLimited(bytes.NewReader(nil), nil, MaxMessageSize); !errors.Is(err, io.EOF) {
		t.Errorf("empty reader err = %v", err)
	}
}

func TestTwoMessagesBackToBack(t *testing.T) {
	var wire []byte
	wire = MarshalRequest(wire, BigEndian, &Request{RequestID: 1, Operation: "a", ObjectKey: []byte("k")})
	wire = MarshalReply(wire, BigEndian, &Reply{RequestID: 1, Payload: []byte("x")})

	r := bytes.NewReader(wire)
	h1, _, err := ReadMessageLimited(r, nil, MaxMessageSize)
	if err != nil || h1.Type != MsgRequest {
		t.Fatalf("first: %v %v", h1, err)
	}
	h2, body2, err := ReadMessageLimited(r, nil, MaxMessageSize)
	if err != nil || h2.Type != MsgReply {
		t.Fatalf("second: %v %v", h2, err)
	}
	rep := new(Reply)
	if err := DecodeReply(h2.Order, body2, rep); err != nil || string(rep.Payload) != "x" {
		t.Fatalf("reply: %+v %v", rep, err)
	}
}

// Property: requests round-trip for arbitrary field values in both byte
// orders.
func TestPropertyRequestRoundTrip(t *testing.T) {
	f := func(id uint32, expected bool, key []byte, op string, payload []byte, little bool) bool {
		// CDR strings cannot carry NUL bytes.
		opClean := bytes.ReplaceAll([]byte(op), []byte{0}, []byte{'_'})
		order := BigEndian
		if little {
			order = LittleEndian
		}
		req := &Request{
			RequestID: id, ResponseExpected: expected,
			ObjectKey: key, Operation: string(opClean), Payload: payload,
		}
		wire := MarshalRequest(nil, order, req)
		h, err := ParseHeader(wire)
		if err != nil {
			return false
		}
		got := new(Request)
		if err := DecodeRequest(h.Order, wire[HeaderSize:], got); err != nil {
			return false
		}
		payloadOK := bytes.Equal(got.Payload, payload) || (len(got.Payload) == 0 && len(payload) == 0)
		return got.RequestID == id && got.ResponseExpected == expected &&
			bytes.Equal(got.ObjectKey, key) && got.Operation == string(opClean) && payloadOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: decoding arbitrary bytes never panics and either fails cleanly
// or yields a structurally valid request.
func TestPropertyDecoderRobustness(t *testing.T) {
	f := func(body []byte, little bool) bool {
		order := BigEndian
		if little {
			order = LittleEndian
		}
		_ = DecodeRequest(order, body, new(Request)) // must not panic
		_ = DecodeReply(order, body, new(Reply))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLocateRoundTrip(t *testing.T) {
	for _, order := range bothOrders {
		req := &LocateRequest{RequestID: 9, ObjectKey: []byte("echo")}
		wire := MarshalLocateRequest(nil, order, req)
		h, err := ParseHeader(wire)
		if err != nil {
			t.Fatal(err)
		}
		if h.Type != MsgLocateRequest {
			t.Fatalf("type = %v", h.Type)
		}
		got := new(LocateRequest)
		if err := DecodeLocateRequest(h.Order, wire[HeaderSize:], got); err != nil {
			t.Fatal(err)
		}
		if got.RequestID != 9 || string(got.ObjectKey) != "echo" {
			t.Errorf("request = %+v", got)
		}

		rep := &LocateReply{RequestID: 9, Status: LocateObjectHere}
		wire = MarshalLocateReply(nil, order, rep)
		h, err = ParseHeader(wire)
		if err != nil {
			t.Fatal(err)
		}
		gotRep := new(LocateReply)
		if err := DecodeLocateReply(h.Order, wire[HeaderSize:], gotRep); err != nil {
			t.Fatal(err)
		}
		if gotRep.RequestID != 9 || gotRep.Status != LocateObjectHere {
			t.Errorf("reply = %+v", gotRep)
		}
	}
	// Truncation surfaces cleanly.
	if err := DecodeLocateRequest(BigEndian, []byte{1}, new(LocateRequest)); !errors.Is(err, ErrTruncated) {
		t.Errorf("short locate request err = %v", err)
	}
	if err := DecodeLocateReply(BigEndian, []byte{1, 2, 3, 4}, new(LocateReply)); !errors.Is(err, ErrTruncated) {
		t.Errorf("short locate reply err = %v", err)
	}
}

func TestLocateStatusString(t *testing.T) {
	if LocateUnknownObject.String() != "UNKNOWN_OBJECT" ||
		LocateObjectHere.String() != "OBJECT_HERE" ||
		LocateObjectForward.String() != "OBJECT_FORWARD" ||
		LocateStatus(9).String() == "" {
		t.Error("LocateStatus.String wrong")
	}
}
