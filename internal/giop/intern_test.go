package giop

import (
	"fmt"
	"strings"
	"testing"
)

func decodeOp(t *testing.T, op string) string {
	t.Helper()
	wire := MarshalRequest(nil, BigEndian, &Request{
		RequestID: 1, ResponseExpected: true, ObjectKey: []byte("k"), Operation: op,
	})
	var req Request
	if err := DecodeRequest(BigEndian, wire[HeaderSize:], &req); err != nil {
		t.Fatal(err)
	}
	if req.Operation != op {
		t.Fatalf("decoded operation %q, want %q", req.Operation, op)
	}
	return req.Operation
}

// A repeated operation name decodes without allocating: the last
// server-side wire allocation that was not the servant's.
func TestDecodeRequestInternsOperation(t *testing.T) {
	wire := MarshalRequest(nil, BigEndian, &Request{
		RequestID: 1, ResponseExpected: true, ObjectKey: []byte("k"), Operation: "echo",
	})
	body := wire[HeaderSize:]
	var req Request
	if n := testing.AllocsPerRun(100, func() {
		if err := DecodeRequest(BigEndian, body, &req); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeRequest of a repeated operation: %v allocs/op, want 0", n)
	}
}

// A hostile peer naming a new operation per request, or a huge one, still
// decodes correctly and cannot grow the table past its bounds.
func TestOpNameTableStaysBounded(t *testing.T) {
	saved := opNames.Load()
	defer opNames.Store(saved)
	opNames.Store(nil)

	for i := 0; i < 4*maxOpNames; i++ {
		decodeOp(t, fmt.Sprintf("unique-%d", i))
	}
	huge := strings.Repeat("x", maxOpNameLen+1)
	decodeOp(t, huge)
	m := *opNames.Load()
	if len(m) != maxOpNames {
		t.Errorf("table holds %d names after %d unique ones, want the cap %d", len(m), 4*maxOpNames, maxOpNames)
	}
	if _, kept := m[huge]; kept {
		t.Errorf("a %d-byte name was interned, the cap is %d", len(huge), maxOpNameLen)
	}
	var bytes int
	for k := range m {
		bytes += len(k)
	}
	if bytes > maxOpNames*maxOpNameLen {
		t.Errorf("table keeps %d name bytes, bound is %d", bytes, maxOpNames*maxOpNameLen)
	}
	// Names that made it in keep resolving to the one shared string.
	if a, b := decodeOp(t, "unique-0"), decodeOp(t, "unique-0"); a != b {
		t.Errorf("interned name decoded as %q then %q", a, b)
	}
}
