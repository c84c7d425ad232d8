package giop

import (
	"fmt"
	"io"

	"repro/internal/telemetry"
)

// wireReadFrames is the distribution of frames delivered per Read — the read
// side's syscall amortisation factor, next to coalesce_batch_frames on the
// write side. Reads that only continued a partial frame are not recorded.
var wireReadFrames = telemetry.NewHistogram("wire_read_frames")

// slabLowWater is the free tail below which a reader standing between frames
// moves to a fresh slab instead of starting a burst that is sure to run off
// the end: frames up to this size never straddle on a lock-step connection.
const slabLowWater = 1 << 10

// FrameReader reads framed GIOP messages from one stream. It reads ahead:
// one Read takes whatever the stream has into a pooled slab, and every frame
// that arrived whole in it is delivered without another Read — NextFrame as
// a refcounted zero-copy view of the slab, Next as a plain slice of it. Both
// demultiplexing endpoints — the client's leading caller and the server's
// per-connection read loop — and the RTZen baseline sit in a tight
// frame-at-a-time loop over one connection; a burst of pipelined frames
// costs them one syscall, a lone frame one instead of two.
//
// A frame that runs past the end of the slab (or is larger than a slab)
// finishes in a buffer of its own: only the bytes already received are
// moved (FrameStats.MovedBytes counts them) and the rest is read straight
// into that buffer.
//
// The reader is resumable: a deadline expiry or injected short read in the
// middle of a header or body leaves the partial bytes in the reader, and
// the following call continues exactly where the stream stopped. That lets a
// reader bound its reads with deadlines (the client's leader, by its invoke
// deadline) without ever tearing a half-received frame. Close gives back the slab and any partial frame;
// a reader abandoned without it leaves them to the collector.
type FrameReader struct {
	r       io.Reader
	maxBody uint32

	// s.buf[rd:wr] is received and not yet delivered; carved counts the
	// frames delivered since the last Read.
	s      *slab
	rd, wr int
	carved int64

	// cur is a frame finishing in its own buffer: its header and the body
	// bytes filled so far.
	cur *FrameBuf
	h   Header
	bn  int

	// held is an own-buffer frame lent out by Next until the following call.
	held *FrameBuf
}

// NewFrameReader returns a FrameReader over r enforcing maxBody on frame
// bodies; zero (or anything over MaxMessageSize) selects MaxMessageSize.
func NewFrameReader(r io.Reader, maxBody uint32) *FrameReader {
	if maxBody == 0 || maxBody > MaxMessageSize {
		maxBody = MaxMessageSize
	}
	return &FrameReader{r: r, maxBody: maxBody}
}

// Next reads one framed message, blocking until a full frame arrives, the
// stream errors, or a deadline on the underlying connection expires. An
// over-limit frame fails with ErrTooLarge before any body byte is read,
// exactly as ReadMessageLimited does.
//
// Ownership contract: the returned body aliases the reader's internal
// buffer and is valid only until the following Next or NextFrame call; a
// caller that hands the bytes to another goroutine, or needs them past the
// next frame, must copy them first (or use NextFrame, which makes the
// lifetime explicit through refcounting).
func (fr *FrameReader) Next() (Header, []byte, error) {
	if fr.held != nil {
		fr.held.Release()
		fr.held = nil
	}
	h, off, own, err := fr.next()
	if err != nil {
		return Header{}, nil, err
	}
	if own != nil {
		fr.held = own
		return h, own.Body(), nil
	}
	end := off + int(h.Size)
	return h, fr.s.buf[off:end:end], nil
}

// NextFrame reads one framed message and returns it as a FrameBuf with one
// reference owned by the caller, who must Release it (directly or through
// whoever the frame is handed to) exactly once. Decoded views that alias the
// frame go stale at that Release. Errors before any byte of a frame arrives
// surface as bare io.EOF on clean close, matching ReadMessageLimited.
func (fr *FrameReader) NextFrame() (Header, *FrameBuf, error) {
	h, off, own, err := fr.next()
	if err != nil {
		return Header{}, nil, err
	}
	if own == nil {
		own = fr.s.carve(off, int(h.Size))
	}
	return h, own, nil
}

// next makes one complete frame available and consumes it from the stream:
// either its body sits in the slab at off, or own holds it in a buffer of
// its own. It issues a Read only when the bytes already received do not hold
// a complete frame, and returns a Read's error only when the frame is still
// incomplete after it.
func (fr *FrameReader) next() (h Header, off int, own *FrameBuf, err error) {
	var rerr error
	for {
		if fr.cur != nil {
			// Finish the body in the frame's own buffer.
			body := fr.cur.buf[:fr.h.Size]
			if fr.bn == len(body) {
				own, h = fr.cur, fr.h
				own.setLen(len(body))
				fr.cur, fr.bn = nil, 0
				fr.carved++
				return h, 0, own, nil
			}
			if rerr != nil {
				return Header{}, 0, nil, fr.fail("body", rerr)
			}
			var n int
			n, rerr = fr.read(body[fr.bn:])
			fr.bn += n
			continue
		}
		avail := fr.wr - fr.rd
		if avail >= HeaderSize {
			h, err = ParseHeader(fr.s.buf[fr.rd : fr.rd+HeaderSize])
			if err == nil && h.Size > fr.maxBody {
				err = fmt.Errorf("%w: %d-byte body over the %d-byte endpoint bound", ErrTooLarge, h.Size, fr.maxBody)
			}
			if err != nil {
				fr.rd += HeaderSize
				return Header{}, 0, nil, err
			}
			total := HeaderSize + int(h.Size)
			if avail >= total {
				off = fr.rd + HeaderSize
				fr.rd += total
				fr.carved++
				return h, off, nil, nil
			}
			if fr.rd+total > slabSize {
				// The frame runs past the slab: move what has arrived of its
				// body into a buffer of its own and finish reading there.
				fr.h, fr.cur = h, AcquireFrame(int(h.Size))
				fr.bn = copy(fr.cur.buf, fr.s.buf[fr.rd+HeaderSize:fr.wr])
				frameMoved.Add(int64(fr.bn))
				fr.rd = fr.wr
				continue
			}
		}
		if rerr != nil {
			stage := "body"
			if avail < HeaderSize {
				stage = "header"
			}
			return Header{}, 0, nil, fr.fail(stage, rerr)
		}
		rerr = fr.fill(avail)
	}
}

// fill reads once into the slab's free tail. Between frames (avail is less
// than a header) it first makes room: a slab no frame still views is reused
// from its start, and one with little tail left is swapped for a fresh slab;
// either way the few header bytes already received move along.
func (fr *FrameReader) fill(avail int) error {
	if avail < HeaderSize {
		switch old := fr.s; {
		case old == nil:
			fr.s = acquireSlab()
		case old.refs.Load() == 1:
			// Only the reader holds the slab, and no other holder can appear
			// without the reader carving one.
			fr.rewind(old)
		case slabSize-fr.rd < slabLowWater:
			fr.s = acquireSlab()
			fr.rewind(old)
			old.release()
		}
	}
	n, err := fr.read(fr.s.buf[fr.wr:])
	fr.wr += n
	return err
}

// rewind moves the undelivered bytes of from to the start of the current
// slab.
func (fr *FrameReader) rewind(from *slab) {
	if from == fr.s && fr.rd == 0 {
		return // already there
	}
	n := copy(fr.s.buf[:], from.buf[fr.rd:fr.wr])
	frameMoved.Add(int64(n))
	fr.rd, fr.wr = 0, n
}

// read issues one Read and records how many frames the previous one yielded.
func (fr *FrameReader) read(p []byte) (int, error) {
	if fr.carved > 0 {
		wireReadFrames.Record(fr.carved)
		fr.carved = 0
	}
	return fr.r.Read(p)
}

// fail classifies the Read error that interrupted a frame at stage. A clean
// close between frames is bare io.EOF (callers match on it); anything else
// keeps the partial frame for the next call and wraps the cause.
func (fr *FrameReader) fail(stage string, err error) error {
	idle := fr.cur == nil && fr.rd == fr.wr
	if idle && fr.s != nil {
		// Nothing buffered: an errored reader that is never called again
		// holds no slab.
		fr.s.release()
		fr.s, fr.rd, fr.wr = nil, 0, 0
	}
	if err == io.EOF {
		if idle {
			return io.EOF
		}
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("giop: %s: %w", stage, err)
}

// Close gives back the slab and any partially-received or lent-out frame. A
// reader being abandoned should be closed so its buffers return to their
// pools (and do not trip the leak detector in tests).
func (fr *FrameReader) Close() {
	for _, f := range [...]*FrameBuf{fr.cur, fr.held} {
		if f != nil {
			f.Release()
		}
	}
	if fr.s != nil {
		fr.s.release()
	}
	fr.cur, fr.held, fr.s = nil, nil, nil
	fr.rd, fr.wr, fr.bn = 0, 0, 0
}
