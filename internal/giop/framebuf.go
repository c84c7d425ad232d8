package giop

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/memory"
)

// FrameBuf is a refcounted holder of one GIOP frame body as it arrived from
// the wire. It is the unit of zero-copy delivery: the demultiplexer hands
// the frame to whoever consumes the message, and the decoded views (object
// key, payload) alias the frame's bytes rather than copying them. Reference
// counting makes the handoff explicit — every party that holds the frame
// past a function boundary Retains it and Releases when done; the last
// Release revokes all outstanding loans and gives the bytes back.
//
// A frame's bytes live in one of two places. A frame carved by a
// FrameReader is a view into the reader's read-ahead slab: the frame holds
// one reference on the slab, and the slab — not the frame — is the pooled
// buffer. A frame from AcquireFrame (one that straddled a slab end, one
// larger than a slab, or a caller's own) has a buffer of its own from a
// size-classed pool.
//
// A frame starts with one reference, owned by whoever acquired it (usually
// a FrameReader). Retain and Release may be called from any goroutine.
// Using a frame after its final Release is a bug; the loan mechanism turns
// the common variant of that bug (a held byte view) into ErrStale instead
// of silent corruption.
type FrameBuf struct {
	buf   []byte // own buffer (capacity fixed by size class), or a window of slab
	n     int    // body length of the frame currently held
	class int32  // index into framePools; -1 = oversized or a slab view, not pooled by class
	slab  *slab  // non-nil for a view: the slab buf points into
	refs  atomic.Int32
	owner memory.LoanOwner
}

// slabSize is the read-ahead unit: one Read fills as much of a slab as the
// socket has, and every frame that arrived whole in it is delivered without
// another syscall or copy.
const slabSize = 16 << 10

// slab is a pooled read-ahead buffer shared by the FrameReader filling it
// and the frames carved out of it. It returns to the pool when the reader
// has moved on and the last carved frame is released.
type slab struct {
	buf  [slabSize]byte
	refs atomic.Int32
}

var (
	slabPool = sync.Pool{New: func() any { return new(slab) }}
	viewPool sync.Pool // *FrameBuf headers of released slab views
)

// acquireSlab returns an empty slab with one reference, the reader's.
func acquireSlab() *slab {
	s := slabPool.Get().(*slab)
	s.refs.Store(1)
	if leakCheck.Load() {
		leakRegister(s)
	}
	return s
}

// release drops one reference; the last one returns the slab to the pool.
func (s *slab) release() {
	if s.refs.Add(-1) > 0 {
		return
	}
	if leakCheck.Load() {
		leakUnregister(s)
	}
	slabPool.Put(s)
}

// carve returns a frame viewing s.buf[off:off+n] with one reference held by
// the caller. The view keeps the slab alive until its final Release.
func (s *slab) carve(off, n int) *FrameBuf {
	frameAcquires.Add(1)
	f, _ := viewPool.Get().(*FrameBuf)
	if f == nil {
		f = &FrameBuf{class: -1}
	} else {
		frameRecycles.Add(1)
	}
	s.refs.Add(1)
	f.slab, f.buf, f.n = s, s.buf[off:off+n:off+n], n
	f.refs.Store(1)
	if leakCheck.Load() {
		leakRegister(f)
	}
	return f
}

// frameClassSizes are the pooled body capacities. The ladder matches the
// traffic the ORBs see: echo benchmarks live in the first two classes, bulk
// payloads climb the rest, and MaxMessageSize caps the top so any frame the
// protocol admits is poolable.
var frameClassSizes = [...]int{256, 1024, 4096, 16384, 65536, 262144, MaxMessageSize}

var framePools [len(frameClassSizes)]sync.Pool

// Frame telemetry: acquires, pool recycles, explicit Detach copies, and the
// bytes a FrameReader had to move because a frame did not fit its slab. The
// detach and move counters are the honest ledger of the zero-copy design —
// every byte that is copied between the socket and the consumer is counted
// here.
var (
	frameAcquires atomic.Int64
	frameRecycles atomic.Int64
	frameDetaches atomic.Int64
	frameMoved    atomic.Int64
)

// FrameStats is a snapshot of frame-pool activity.
type FrameStats struct {
	// Acquired counts frames handed out: one per AcquireFrame call and one
	// per frame a FrameReader delivers from its slab.
	Acquired int64
	// Recycled counts frames returned by a pool rather than freshly
	// allocated (a lower bound: sync.Pool may drop buffers under GC).
	Recycled int64
	// Detached counts explicit Detach copies out of frames.
	Detached int64
	// MovedBytes counts bytes a FrameReader copied from a slab because the
	// frame they belong to ran past the slab's end.
	MovedBytes int64
}

// ReadFrameStats returns the process-wide frame counters.
func ReadFrameStats() FrameStats {
	return FrameStats{
		Acquired:   frameAcquires.Load(),
		Recycled:   frameRecycles.Load(),
		Detached:   frameDetaches.Load(),
		MovedBytes: frameMoved.Load(),
	}
}

// frameClassFor returns the pool class index for a body of n bytes, or -1
// when n exceeds every class (possible only for callers that bypass the
// protocol cap).
func frameClassFor(n int) int {
	for i, sz := range frameClassSizes {
		if n <= sz {
			return i
		}
	}
	return -1
}

// AcquireFrame returns a frame whose buffer holds at least n bytes, with
// one reference held by the caller. Frames come from a per-size-class pool;
// an oversized request (beyond MaxMessageSize) is satisfied with an
// unpooled buffer.
func AcquireFrame(n int) *FrameBuf {
	frameAcquires.Add(1)
	class := frameClassFor(n)
	var f *FrameBuf
	if class >= 0 {
		if v := framePools[class].Get(); v != nil {
			f = v.(*FrameBuf)
			frameRecycles.Add(1)
		} else {
			f = &FrameBuf{buf: make([]byte, frameClassSizes[class]), class: int32(class)}
		}
	} else {
		f = &FrameBuf{buf: make([]byte, n), class: -1}
	}
	f.n = 0
	f.refs.Store(1)
	if leakCheck.Load() {
		leakRegister(f)
	}
	return f
}

// Body returns the frame's bytes. The slice is valid while the caller holds
// a reference; after the final Release it may be recycled at any moment.
func (f *FrameBuf) Body() []byte { return f.buf[:f.n] }

// Cap returns the frame buffer's capacity.
func (f *FrameBuf) Cap() int { return len(f.buf) }

// setLen records the body length after the reader filled the buffer.
func (f *FrameBuf) setLen(n int) { f.n = n }

// Retain adds a reference. Each Retain must be paired with exactly one
// Release.
func (f *FrameBuf) Retain() {
	if f.refs.Add(1) <= 1 {
		panic("giop: Retain of a released FrameBuf")
	}
}

// Release drops one reference. The final Release revokes every loan issued
// from the frame and returns the buffer to its pool; any Bytes() on a
// still-held view fails with memory.ErrStale from that point on.
func (f *FrameBuf) Release() {
	switch v := f.refs.Add(-1); {
	case v > 0:
		return
	case v < 0:
		panic("giop: Release of an already-released FrameBuf")
	}
	f.owner.Revoke()
	if leakCheck.Load() {
		leakUnregister(f)
	}
	f.n = 0
	if s := f.slab; s != nil {
		f.slab, f.buf = nil, nil
		viewPool.Put(f)
		s.release()
	} else if f.class >= 0 {
		framePools[f.class].Put(f)
	}
}

// Lend issues a revocable loan of b, which must alias the frame's buffer.
// The loan fails with memory.ErrStale once the frame is fully released —
// the scope rule that makes borrowed decode views safe to hand to handlers.
func (f *FrameBuf) Lend(b []byte) memory.Loan { return f.owner.Lend(b) }

// Detach copies the frame body into fresh caller-owned memory — the
// explicit escape hatch for a handler that needs the bytes past its return
// (and past the frame's release). The copy is counted in FrameStats.
func (f *FrameBuf) Detach() []byte {
	frameDetaches.Add(1)
	out := make([]byte, f.n)
	copy(out, f.Body())
	return out
}

// Leak-check mode: a registry of live frames and slabs for tests. Enabled it
// records the site of every acquire and CheckFrameLeaks reports the frames
// never released and the slabs never returned — the wire-buffer analogue of
// a scoped-memory region that is entered and never exited.
var (
	leakCheck atomic.Bool
	leakMu    sync.Mutex
	leakLive  map[any]string // *FrameBuf or *slab → acquire site
)

// SetFrameLeakCheck switches frame leak tracking on or off. Turning it on
// resets the registry; it is meant for tests, not production readers.
func SetFrameLeakCheck(on bool) {
	leakMu.Lock()
	defer leakMu.Unlock()
	if on {
		leakLive = make(map[any]string)
	} else {
		leakLive = nil
	}
	leakCheck.Store(on)
}

func leakRegister(f any) {
	site := "unknown"
	if _, file, line, ok := runtime.Caller(2); ok {
		site = fmt.Sprintf("%s:%d", file, line)
	}
	leakMu.Lock()
	if leakLive != nil {
		leakLive[f] = site
	}
	leakMu.Unlock()
}

func leakUnregister(f any) {
	leakMu.Lock()
	if leakLive != nil {
		delete(leakLive, f)
	}
	leakMu.Unlock()
}

// CheckFrameLeaks returns the acquire sites of frames still unreleased and
// slabs still held, one string per live object. Tests enable leak-check
// mode, run a workload to quiescence, and fail on a non-empty result.
func CheckFrameLeaks() []string {
	leakMu.Lock()
	defer leakMu.Unlock()
	if len(leakLive) == 0 {
		return nil
	}
	out := make([]string, 0, len(leakLive))
	for _, site := range leakLive {
		out = append(out, site)
	}
	return out
}
