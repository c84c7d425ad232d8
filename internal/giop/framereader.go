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
// one Read takes whatever the stream has into a slab, and every frame that
// arrived whole in it is delivered without another Read — NextFrame as a
// zero-copy view of the slab owned by the caller, Next as a plain slice of it. Both
// demultiplexing endpoints — the client's leading caller and the server's
// per-connection read loop — and the RTZen baseline sit in a tight
// frame-at-a-time loop over one connection; a burst of pipelined frames
// costs them one syscall, a lone frame one instead of two.
//
// Every frame is delivered whole from one slab. When a frame would run past
// the end of the slab, the reader moves the bytes already received of it to
// the start of a slab that holds it and keeps reading there: the same slab
// if no frame still views it, else a fresh pooled one, or an unpooled one
// sized to a frame longer than a slab. Only received bytes move
// (FrameStats.MovedBytes counts them), and the Read that finishes the frame
// also takes whatever follows it.
//
// The reader is resumable: a deadline expiry or injected short read in the
// middle of a header or body leaves the partial bytes in the reader, and
// the following call continues exactly where the stream stopped. That lets a
// reader bound its reads with deadlines (the client's leader, by its invoke
// deadline) without ever tearing a half-received frame. Close gives back the
// slab, and with it any partial frame; a reader abandoned without it leaves
// them to the collector.
type FrameReader struct {
	r       io.Reader
	maxBody uint32

	// s.buf[rd:wr] is received and not yet delivered; carved counts the
	// frames delivered since the last Read.
	s      *slab
	rd, wr int
	carved int64
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
// Ownership contract: the returned body aliases the reader's slab and is
// valid only until the following Next or NextFrame call; a caller that hands
// the bytes to another goroutine, or needs them past the next frame, must
// copy them first (or use NextFrame, whose frame lives until its Release).
func (fr *FrameReader) Next() (Header, []byte, error) {
	h, off, err := fr.next()
	if err != nil {
		return Header{}, nil, err
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
	h, off, err := fr.next()
	if err != nil {
		return Header{}, nil, err
	}
	return h, fr.s.carve(off, int(h.Size)), nil
}

// next makes one complete frame available in the slab at off and consumes
// it from the stream. It issues a Read only when the bytes already received
// do not hold a complete frame, and returns a Read's error only when the
// frame is still incomplete after it.
func (fr *FrameReader) next() (h Header, off int, err error) {
	var rerr error
	for {
		avail, need := fr.wr-fr.rd, HeaderSize
		if avail >= HeaderSize {
			h, err = ParseHeader(fr.s.buf[fr.rd : fr.rd+HeaderSize])
			if err == nil && h.Size > fr.maxBody {
				err = fmt.Errorf("%w: %d-byte body over the %d-byte endpoint bound", ErrTooLarge, h.Size, fr.maxBody)
			}
			if err != nil {
				fr.rd += HeaderSize
				return Header{}, 0, err
			}
			need += int(h.Size)
			if avail >= need {
				off = fr.rd + HeaderSize
				fr.rd += need
				fr.carved++
				return h, off, nil
			}
		}
		if rerr != nil {
			stage := "body"
			if avail < HeaderSize {
				stage = "header"
			}
			return Header{}, 0, fr.fail(stage, rerr)
		}
		rerr = fr.fill(avail, need)
	}
}

// fill reads once into the slab's free tail, first making room for the
// need bytes from rd on that the frame being received takes. Between frames
// (avail is less than a header) it also makes room for a burst: a slab no
// frame still views is reused from its start, and one with little tail left
// is swapped for a fresh slab.
func (fr *FrameReader) fill(avail, need int) error {
	if s := fr.s; s == nil || fr.rd+need > len(s.buf) ||
		avail < HeaderSize && (s.refs.Load() == 1 || len(s.buf)-fr.rd < slabLowWater) {
		fr.relocate(need)
	}
	n, err := fr.read(fr.s.buf[fr.wr:])
	fr.wr += n
	return err
}

// relocate moves the undelivered bytes to the start of a slab that holds
// need bytes: the current one if only the reader holds it — no other holder
// can appear without the reader carving one — else a fresh one, pooled, or
// unpooled and need bytes long for a frame longer than a slab.
func (fr *FrameReader) relocate(need int) {
	from, to, n := fr.s, fr.s, fr.wr-fr.rd
	if from == nil || from.refs.Load() != 1 || len(from.buf) != max(need, slabSize) {
		to = acquireSlab(need)
	}
	if n > 0 && (to != from || fr.rd > 0) {
		copy(to.buf, from.buf[fr.rd:fr.wr])
		frameMoved.Add(int64(n))
	}
	if from != nil && from != to {
		from.release()
	}
	fr.s, fr.rd, fr.wr = to, 0, n
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
	idle := fr.rd == fr.wr
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

// Close gives back the slab, and with it any partially-received frame. A
// reader being abandoned should be closed so its slab returns to the pool
// (and does not trip the leak detector in tests).
func (fr *FrameReader) Close() {
	if fr.s != nil {
		fr.s.release()
	}
	fr.s, fr.rd, fr.wr = nil, 0, 0
}
