package giop

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/transport"
)

// readStep is one scripted stretch of a stream: data is handed out (across
// as many Reads as the caller's buffers need), then err, if set, is returned
// once with no bytes.
type readStep struct {
	data []byte
	err  error
}

// scriptReader replays steps and ends with io.EOF. reads counts Read calls.
type scriptReader struct {
	steps []readStep
	reads int
}

func (s *scriptReader) Read(p []byte) (int, error) {
	s.reads++
	for len(s.steps) > 0 {
		st := &s.steps[0]
		if len(st.data) > 0 {
			n := copy(p, st.data)
			st.data = st.data[n:]
			return n, nil
		}
		err := st.err
		s.steps = s.steps[1:]
		if err != nil {
			return 0, err
		}
	}
	return 0, io.EOF
}

// errClass folds an end-of-stream error into what callers can tell apart:
// a clean close, a frame cut short, an over-bound body, or anything else by
// its text.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case err == io.EOF:
		return "eof"
	case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, io.EOF):
		return "truncated"
	case errors.Is(err, ErrTooLarge):
		return "too-large"
	}
	return err.Error()
}

// randomStream builds a wire stream of valid frames of mixed sizes — empty
// bodies, echo-sized, several to a slab, larger than a slab — and ends it
// cleanly, cut short, with a hostile length field, or with a bad magic.
func randomStream(rng *rand.Rand, maxBody int) []byte {
	var wire []byte
	for i, n := 0, 1+rng.Intn(40); i < n; i++ {
		var size int
		switch rng.Intn(10) {
		case 0:
			size = 0
		case 1:
			size = slabSize/4 + rng.Intn(slabSize)
		case 2:
			size = slabSize + rng.Intn(maxBody-slabSize-64)
		default:
			size = rng.Intn(600)
		}
		payload := make([]byte, size)
		rng.Read(payload)
		if rng.Intn(2) == 0 {
			wire = MarshalRequest(wire, ByteOrder(rng.Intn(2)), &Request{
				RequestID: uint32(i), Operation: "op", ObjectKey: []byte("key"), Payload: payload,
			})
		} else {
			wire = MarshalReply(wire, ByteOrder(rng.Intn(2)), &Reply{RequestID: uint32(i), Payload: payload})
		}
	}
	switch rng.Intn(5) {
	case 0: // cut short anywhere, mid-header and mid-body included
		wire = wire[:rng.Intn(len(wire)+1)]
	case 1: // hostile length
		tail := MarshalReply(nil, BigEndian, &Reply{RequestID: 1})
		tail[8], tail[9], tail[10], tail[11] = 0xFF, 0xFF, 0xFF, 0xF0
		wire = append(wire, tail...)
	case 2: // a length just over the endpoint bound
		hdr := MarshalReply(nil, BigEndian, &Reply{RequestID: 1})[:HeaderSize]
		over := uint32(maxBody + 1)
		hdr[8], hdr[9], hdr[10], hdr[11] = byte(over>>24), byte(over>>16), byte(over>>8), byte(over)
		wire = append(wire, hdr...)
	case 3: // not GIOP
		wire = append(wire, []byte("HTTP/1.1 200 OK\r\n\r\n")...)
	}
	return wire
}

// chunked cuts wire into a random read script: single bytes, header-sized
// crumbs, echo-sized pieces and bursts larger than a slab, with read
// deadlines expiring in between (mid-header and mid-body as they fall).
func chunked(rng *rand.Rand, wire []byte) []readStep {
	var steps []readStep
	for len(wire) > 0 {
		var n int
		switch rng.Intn(4) {
		case 0:
			n = 1
		case 1:
			n = 1 + rng.Intn(2*HeaderSize)
		case 2:
			n = 1 + rng.Intn(700)
		default:
			n = 1 + rng.Intn(3*slabSize)
		}
		if n > len(wire) {
			n = len(wire)
		}
		st := readStep{data: wire[:n]}
		if rng.Intn(4) == 0 {
			st.err = os.ErrDeadlineExceeded
		}
		steps = append(steps, st)
		wire = wire[n:]
	}
	return steps
}

// TestFrameReaderMatchesReadMessage is the reader's property test: over
// random streams and random chunkings, NextFrame and Next deliver exactly
// the frames — and end with the same class of error — that the plain
// two-reads-per-frame ReadMessageLimited does on the unchunked stream, and
// every slab and frame is back in its pool afterwards. The chunks come from
// a script, deadline expiries between them included.
func TestFrameReaderMatchesReadMessage(t *testing.T) {
	frameReaderProperty(t, func(rng *rand.Rand, wire []byte) (io.Reader, func()) {
		return &scriptReader{steps: chunked(rng, wire)}, func() {}
	})
}

// TestFrameReaderMatchesReadMessageInproc runs the same property over a real
// in-process connection: a writer goroutine sends the chunks as Writes (the
// largest several times the connection's buffer, so it parks mid-chunk) and
// closes; the reader's deadline expires, already passed, before one read in
// four.
func TestFrameReaderMatchesReadMessageInproc(t *testing.T) {
	net := transport.NewInproc()
	l, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	frameReaderProperty(t, func(rng *rand.Rand, wire []byte) (io.Reader, func()) {
		client, err := net.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		server, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		steps := chunked(rng, wire)
		written := make(chan struct{})
		go func() {
			defer close(written)
			defer client.Close()
			for _, st := range steps {
				if _, err := client.Write(st.data); err != nil {
					return // the reader gave up on a hostile frame and closed
				}
			}
		}()
		return &expiringReader{conn: server.(deadlineConn), rng: rng}, func() {
			server.Close()
			<-written
		}
	})
}

// deadlineConn is a connection whose reads can be bounded.
type deadlineConn interface {
	io.Reader
	SetReadDeadline(time.Time) error
}

// expiringReader reads from conn, one time in four under a deadline that has
// already passed.
type expiringReader struct {
	conn deadlineConn
	rng  *rand.Rand
}

func (r *expiringReader) Read(p []byte) (int, error) {
	if r.rng.Intn(4) == 0 {
		_ = r.conn.SetReadDeadline(time.Unix(1, 0))
		defer r.conn.SetReadDeadline(time.Time{})
	}
	return r.conn.Read(p)
}

// propertyMaxBody bounds frame bodies in the property: larger than two
// slabs, so streams carry frames no pooled slab holds.
const propertyMaxBody = 96 << 10

// frameReaderProperty checks the property over 300 seeded streams; source
// turns a stream into the reader under test's input and a function that
// releases it.
func frameReaderProperty(t *testing.T, source func(rng *rand.Rand, wire []byte) (io.Reader, func())) {
	SetFrameLeakCheck(true)
	defer SetFrameLeakCheck(false)

	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wire := randomStream(rng, propertyMaxBody)
		src, done := source(rng, wire)
		checkFrameReader(t, fmt.Sprintf("seed %d", seed), wire, src, rng, seed%2 == 0)
		done()
		if leaks := CheckFrameLeaks(); len(leaks) != 0 {
			t.Fatalf("seed %d: %d buffers never returned: %v", seed, len(leaks), leaks)
		}
	}
}

// FuzzFrameReader is the property as a fuzz target: arbitrary bytes, cut
// into Reads by cuts with deadline expiries between them, come out of Next
// (even seed) or NextFrame (odd seed, held frames released in an order the
// seed draws) as the same frames and the same class of error as
// ReadMessageLimited reads from the whole stream, without a panic, and
// every slab and frame is given back. The seeds are the property's streams
// of up to two slabs.
func FuzzFrameReader(f *testing.F) {
	for seed, added := int64(1), 0; added < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wire := randomStream(rng, propertyMaxBody)
		if len(wire) > 2*slabSize {
			continue // small inputs keep the fuzzer fast
		}
		cuts := make([]byte, 1+rng.Intn(64))
		rng.Read(cuts)
		f.Add(wire, cuts, seed)
		added++
	}
	f.Fuzz(func(t *testing.T, wire, cuts []byte, seed int64) {
		SetFrameLeakCheck(true)
		defer SetFrameLeakCheck(false)
		src := &scriptReader{steps: cutScript(wire, cuts)}
		checkFrameReader(t, "", wire, src, rand.New(rand.NewSource(seed)), seed%2 == 0)
		if leaks := CheckFrameLeaks(); len(leaks) != 0 {
			t.Fatalf("%d buffers never returned: %v", len(leaks), leaks)
		}
	})
}

// cutScript cuts wire into Reads by cuts, one byte a chunk and the rest of
// the stream after the last: bits 0-4 give a length of 1 to 32 and bits 5-6
// scale it by 1, 16, 256 or 4096 (single bytes to several slabs), and bit 7
// expires a read deadline after the chunk.
func cutScript(wire, cuts []byte) []readStep {
	var steps []readStep
	for _, c := range cuts {
		if len(wire) == 0 {
			break
		}
		n := min(int(c&31+1)<<(4*(c>>5&3)), len(wire))
		st := readStep{data: wire[:n]}
		if c&0x80 != 0 {
			st.err = os.ErrDeadlineExceeded
		}
		steps = append(steps, st)
		wire = wire[n:]
	}
	return append(steps, readStep{data: wire})
}

// checkFrameReader reads wire from src through a FrameReader and fails t,
// naming the stream by name, unless it yields what ReadMessageLimited does
// on the whole stream. Frames from NextFrame are held across later reads
// and released in an order rng draws: their bytes must still be the
// oracle's when they go. The reader is closed on return.
func checkFrameReader(t *testing.T, name string, wire []byte, src io.Reader, rng *rand.Rand, useNext bool) {
	t.Helper()
	type frame struct {
		h    Header
		body []byte
	}
	var want []frame
	var wantErr error
	for oracle := bytes.NewReader(wire); ; {
		h, body, err := ReadMessageLimited(oracle, nil, propertyMaxBody)
		if err != nil {
			wantErr = err
			break
		}
		want = append(want, frame{h, body})
	}

	fr := NewFrameReader(src, propertyMaxBody)
	defer fr.Close()
	type heldFrame struct {
		fb  *FrameBuf
		idx int
	}
	var held []heldFrame
	release := func(i int) {
		if hf := held[i]; !bytes.Equal(hf.fb.Body(), want[hf.idx].body) {
			t.Fatalf("%s: held frame %d changed under its holder", name, hf.idx)
		}
		held[i].fb.Release()
		held = append(held[:i], held[i+1:]...)
	}
	var gotErr error
	got := 0
	for {
		var (
			h    Header
			body []byte
			err  error
		)
		if useNext {
			h, body, err = fr.Next()
		} else {
			var fb *FrameBuf
			if h, fb, err = fr.NextFrame(); err == nil {
				body = fb.Body()
				held = append(held, heldFrame{fb, got})
				for len(held) > 0 && rng.Intn(3) > 0 {
					release(rng.Intn(len(held)))
				}
			}
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			continue
		}
		if err != nil {
			gotErr = err
			break
		}
		if got >= len(want) {
			t.Fatalf("%s: frame %d delivered past the oracle's %d", name, got, len(want))
		}
		if w := want[got]; h != w.h || !bytes.Equal(body, w.body) {
			t.Fatalf("%s: frame %d = %+v (%d bytes), want %+v (%d bytes)", name, got, h, len(body), w.h, len(w.body))
		}
		got++
	}
	if got != len(want) {
		t.Fatalf("%s: %d frames before %v, want %d before %v", name, got, gotErr, len(want), wantErr)
	}
	if errClass(gotErr) != errClass(wantErr) {
		t.Fatalf("%s: stream ended with %v, want %v", name, gotErr, wantErr)
	}
	for len(held) > 0 {
		release(0)
	}
}

// TestFrameReaderOneReadPerBurst pins the read-ahead: a burst of frames
// that arrives together is one Read, delivered as views of one slab, and
// the one frame that runs off the slab's end moves only its received part
// to a fresh slab, where the Read that finishes it also takes the frames
// behind it.
func TestFrameReaderOneReadPerBurst(t *testing.T) {
	SetFrameLeakCheck(true)
	defer SetFrameLeakCheck(false)

	one := MarshalReply(nil, BigEndian, &Reply{RequestID: 1, Payload: bytes.Repeat([]byte{7}, 240)})
	perSlab := slabSize / len(one)
	burst := bytes.Repeat(one, perSlab+4) // frame perSlab straddles the slab end
	src := &scriptReader{steps: []readStep{{data: burst}}}
	fr := NewFrameReader(src, 0)
	defer fr.Close()

	before := ReadFrameStats()
	var frames []*FrameBuf
	for i := 0; i < perSlab+4; i++ {
		_, fb, err := fr.NextFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if i == perSlab-1 && src.reads != 1 {
			t.Errorf("%d whole frames took %d Reads, want 1", perSlab, src.reads)
		}
		frames = append(frames, fb)
	}
	after := ReadFrameStats()
	if d := after.Acquired - before.Acquired; d != int64(perSlab+4) {
		t.Errorf("Acquired moved by %d for %d delivered frames", d, perSlab+4)
	}
	wantMoved := int64(slabSize - perSlab*len(one))
	if d := after.MovedBytes - before.MovedBytes; d != wantMoved {
		t.Errorf("MovedBytes moved by %d, want the straddling frame's %d received bytes", d, wantMoved)
	}
	if src.reads != 2 {
		t.Errorf("burst of %d frames took %d Reads, want 2 (the slab, then the straddler's tail with the 3 frames behind it)", perSlab+4, src.reads)
	}
	if frames[perSlab].slab == frames[0].slab || frames[perSlab].slab != frames[perSlab+3].slab {
		t.Error("the straddler is not in a slab of its own shared with the frames behind it")
	}
	for i, fb := range frames {
		if !bytes.Equal(fb.Body(), one[HeaderSize:]) {
			t.Errorf("frame %d body differs", i)
		}
		fb.Release()
	}
	if h := wireReadFrames; h.Max() < int64(perSlab) {
		t.Errorf("wire_read_frames max = %d, want the %d-frame burst recorded", h.Max(), perSlab)
	}
	fr.Close()
	if leaks := CheckFrameLeaks(); len(leaks) != 0 {
		t.Errorf("buffers never returned: %v", leaks)
	}
}

// TestFrameReaderSlabReuse pins the two steady states: a reader whose
// frames are released before the next read stays on one slab for ever, and
// one whose frames are still out moves to a fresh slab rather than
// overwrite them.
func TestFrameReaderSlabReuse(t *testing.T) {
	one := MarshalReply(nil, BigEndian, &Reply{RequestID: 1, Payload: bytes.Repeat([]byte{9}, 300)})
	var steps []readStep
	for i := 0; i < 200; i++ {
		steps = append(steps, readStep{data: one})
	}
	fr := NewFrameReader(&scriptReader{steps: steps}, 0)
	defer fr.Close()

	_, fb, err := fr.NextFrame()
	if err != nil {
		t.Fatal(err)
	}
	first := fb.slab
	fb.Release()
	for i := 0; i < 99; i++ {
		_, fb, err := fr.NextFrame()
		if err != nil {
			t.Fatal(err)
		}
		if fb.slab != first {
			t.Fatalf("frame %d: lock-step reader left its slab", i)
		}
		fb.Release()
	}

	var out []*FrameBuf
	for i := 0; i < 100; i++ {
		_, fb, err := fr.NextFrame()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fb.Body(), one[HeaderSize:]) {
			t.Fatalf("frame %d corrupted while %d earlier frames were still held", i, len(out))
		}
		out = append(out, fb)
	}
	if out[len(out)-1].slab == first {
		t.Error("100 held 312-byte frames still fit the first slab; the reader must have overwritten live views")
	}
	for _, fb := range out {
		if !bytes.Equal(fb.Body(), one[HeaderSize:]) {
			t.Fatal("a held frame's bytes changed under it")
		}
		fb.Release()
	}
}
