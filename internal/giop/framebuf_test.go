package giop

import (
	"bytes"
	"errors"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/memory"
)

// TestAcquireFrameHoldsN pins AcquireFrame's one rule: the frame's body is
// n bytes, carved from a slab of its own — a pooled one up to a slab's size,
// one sized to the frame beyond it, up to the protocol's cap and past it.
func TestAcquireFrameHoldsN(t *testing.T) {
	for _, n := range []int{0, 1, 256, slabSize - 1, slabSize, slabSize + 1, 3 * slabSize, MaxMessageSize, MaxMessageSize + 1} {
		f := AcquireFrame(n)
		if f.slab == nil {
			t.Fatalf("AcquireFrame(%d) has no slab", n)
		}
		if len(f.Body()) != n || len(f.slab.buf) != max(n, slabSize) {
			t.Errorf("AcquireFrame(%d): %d-byte body in a %d-byte slab", n, len(f.Body()), len(f.slab.buf))
		}
		f.Release()
	}
}

func TestFramePoolRecycles(t *testing.T) {
	before := ReadFrameStats()
	for i := 0; i < 100; i++ {
		f := AcquireFrame(64)
		f.Release()
	}
	after := ReadFrameStats()
	if d := after.Acquired - before.Acquired; d != 100 {
		t.Errorf("acquires delta = %d, want 100", d)
	}
	if after.Recycled == before.Recycled {
		t.Error("no frame came back from the pool across 100 acquire/release cycles")
	}
}

// A frame has one owner: its body is valid until the Release, and a second
// Release panics.
func TestFrameSecondReleasePanics(t *testing.T) {
	f := AcquireFrame(5)
	copy(f.Body(), "hello")
	if string(f.Body()) != "hello" {
		t.Errorf("body = %q", f.Body())
	}
	f.Release()

	defer func() {
		if recover() == nil {
			t.Error("a second Release did not panic")
		}
	}()
	f.Release()
}

func TestFrameLoansGoStaleAtRelease(t *testing.T) {
	f := AcquireFrame(8)
	copy(f.Body(), "payload!")

	view := f.Lend(f.Body())
	window := f.Lend(f.Body()[2:5])
	if b, err := view.Bytes(); err != nil || string(b) != "payload!" {
		t.Fatalf("live view = %q, %v", b, err)
	}
	if b, err := window.Bytes(); err != nil || string(b) != "ylo" {
		t.Fatalf("live window = %q, %v", b, err)
	}

	// Detach while live: a private copy that survives the release.
	escaped, err := window.Detach()
	if err != nil {
		t.Fatal(err)
	}

	f.Release()
	if _, err := view.Bytes(); !errors.Is(err, memory.ErrStale) {
		t.Errorf("view after release: err = %v, want ErrStale", err)
	}
	if _, err := window.Detach(); !errors.Is(err, memory.ErrStale) {
		t.Errorf("detach after release: err = %v, want ErrStale", err)
	}
	if view.Valid() {
		t.Error("view still Valid after release")
	}
	if string(escaped) != "ylo" {
		t.Errorf("escaped copy = %q", escaped)
	}
}

func TestFrameDetachCounted(t *testing.T) {
	f := AcquireFrame(4)
	copy(f.Body(), "abcd")
	before := ReadFrameStats().Detached
	out := f.Detach()
	f.Release()
	if string(out) != "abcd" {
		t.Errorf("detached = %q", out)
	}
	if d := ReadFrameStats().Detached - before; d != 1 {
		t.Errorf("detach counter delta = %d, want 1", d)
	}
}

func TestFrameLeakCheck(t *testing.T) {
	SetFrameLeakCheck(true)
	defer SetFrameLeakCheck(false)

	held := AcquireFrame(16)
	released := AcquireFrame(16)
	released.Release()

	// The held frame and the slab it views: the frame names this file.
	leaks := CheckFrameLeaks()
	if len(leaks) != 2 || !slices.ContainsFunc(leaks, func(site string) bool { return strings.Contains(site, "framebuf_test.go") }) {
		t.Fatalf("leaks = %v, want the held frame, acquired in this file, and its slab", leaks)
	}
	held.Release()
	if leaks := CheckFrameLeaks(); len(leaks) != 0 {
		t.Errorf("leaks after release = %v", leaks)
	}
}

// TestFrameReaderNextAliasesSlab pins the Next ownership contract: the
// returned body aliases the reader's read-ahead slab — two frames that
// arrived together are served by one Read — and is only valid until the
// following Next call, which may reuse the slab from its start.
func TestFrameReaderNextAliasesSlab(t *testing.T) {
	frame := func(id uint32, payload string) []byte {
		return MarshalRequest(nil, LittleEndian, &Request{RequestID: id, Operation: "a", ObjectKey: []byte("k"), Payload: []byte(payload)})
	}
	src := &scriptReader{steps: []readStep{
		{data: append(frame(1, "first"), frame(2, "SECND")...)},
		{data: frame(3, "third")},
	}}
	fr := NewFrameReader(src, 1<<10)
	defer fr.Close()

	_, body1, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	req1 := new(Request)
	if err := DecodeRequest(LittleEndian, body1, req1); err != nil || string(req1.Payload) != "first" {
		t.Fatalf("req1 = %+v, %v", req1, err)
	}
	_, body2, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if src.reads != 1 {
		t.Errorf("two frames that arrived together took %d Reads, want 1", src.reads)
	}
	if req2 := new(Request); DecodeRequest(LittleEndian, body2, req2) != nil || string(req2.Payload) != "SECND" {
		t.Fatalf("req2 = %+v, %v", req2, err)
	}
	// req1.Payload borrows from body1, which borrows from the slab; the third
	// frame lands at the slab's start and the old view shows its bytes —
	// proof of aliasing, and of why Next's contract demands copying before
	// the next call.
	if _, _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if string(req1.Payload) != "third" {
		t.Errorf("old payload view = %q after the slab was reused, want the third frame's bytes", req1.Payload)
	}
}

// stutterReader returns the wire stream in tiny chunks and fails every
// other read with a timeout error, exercising NextFrame's resume paths in
// the middle of both the header and the body.
type stutterReader struct {
	data  []byte
	chunk int
	tick  int
}

func (s *stutterReader) Read(p []byte) (int, error) {
	s.tick++
	if s.tick%2 == 0 {
		return 0, os.ErrDeadlineExceeded
	}
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n := s.chunk
	if n > len(s.data) {
		n = len(s.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, s.data[:n])
	s.data = s.data[n:]
	return n, nil
}

func TestFrameReaderNextFrameResumes(t *testing.T) {
	SetFrameLeakCheck(true)
	defer SetFrameLeakCheck(false)

	var wire []byte
	wire = MarshalRequest(wire, BigEndian, &Request{RequestID: 7, Operation: "echo", ObjectKey: []byte("key"), Payload: bytes.Repeat([]byte{0xAB}, 300)})
	wire = MarshalReply(wire, BigEndian, &Reply{RequestID: 7, Payload: []byte("done")})

	fr := NewFrameReader(&stutterReader{data: wire, chunk: 5}, 0)
	var frames []*FrameBuf
	var headers []Header
	for len(frames) < 2 {
		h, fb, err := fr.NextFrame()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				continue // interrupted mid-frame; resume
			}
			t.Fatal(err)
		}
		frames = append(frames, fb)
		headers = append(headers, h)
	}

	req := new(Request)
	if err := DecodeRequest(headers[0].Order, frames[0].Body(), req); err != nil || req.RequestID != 7 || len(req.Payload) != 300 {
		t.Fatalf("reassembled request = %+v, %v", req, err)
	}
	rep := new(Reply)
	if err := DecodeReply(headers[1].Order, frames[1].Body(), rep); err != nil || string(rep.Payload) != "done" {
		t.Fatalf("reassembled reply = %+v, %v", rep, err)
	}
	frames[0].Release()
	frames[1].Release()

	// Clean end-of-stream after the last frame: bare EOF.
	for {
		_, _, err := fr.NextFrame()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			continue
		}
		if err != io.EOF {
			t.Errorf("end of stream err = %v, want bare io.EOF", err)
		}
		break
	}
	if leaks := CheckFrameLeaks(); len(leaks) != 0 {
		t.Errorf("frames leaked: %v", leaks)
	}
}

func TestFrameReaderCloseReleasesPartialFrame(t *testing.T) {
	SetFrameLeakCheck(true)
	defer SetFrameLeakCheck(false)

	wire := MarshalRequest(nil, LittleEndian, &Request{RequestID: 9, Operation: "x", ObjectKey: []byte("k"), Payload: []byte("abcdefgh")})
	// Stop the stream partway through the body: the reader keeps the slab
	// with the partial frame in it, which only Close can give back.
	fr := NewFrameReader(bytes.NewReader(wire[:HeaderSize+4]), 0)
	if _, _, err := fr.NextFrame(); err == nil {
		t.Fatal("truncated frame succeeded")
	}
	if len(CheckFrameLeaks()) != 1 {
		t.Fatal("expected the slab with the partial frame to be live")
	}
	fr.Close()
	if leaks := CheckFrameLeaks(); len(leaks) != 0 {
		t.Errorf("Close left frames live: %v", leaks)
	}
	fr.Close() // idempotent
}

func TestFrameReaderNextFrameTooLarge(t *testing.T) {
	wire := MarshalRequest(nil, LittleEndian, &Request{RequestID: 1, Operation: "op", ObjectKey: []byte("k"), Payload: bytes.Repeat([]byte{1}, 128)})
	fr := NewFrameReader(bytes.NewReader(wire), 64)
	if _, _, err := fr.NextFrame(); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}
