package giop

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/memory"
)

// FrameBuf holds one GIOP frame body as it arrived from the wire. It is the
// unit of zero-copy delivery: the demultiplexer hands the frame to whoever
// consumes the message, and the decoded views (object key, payload) alias
// the frame's bytes rather than copying them. A frame has one owner at a
// time, and handing it on hands on the duty to Release it; the Release
// revokes all outstanding loans and gives the bytes back.
//
// Every frame is a view into a slab: the frame holds one reference on the
// slab, and the slab — not the frame — is the buffer that goes back to its
// pool. A FrameReader carves its frames out of its read-ahead slab;
// AcquireFrame carves one out of a slab of its own.
//
// A frame's first owner is whoever acquired it (usually a FrameReader);
// Release may be called from any goroutine, once. Using a frame after its
// Release is a bug: a second Release panics, and the loan mechanism turns
// the common variant (a byte view kept past the release) into ErrStale
// instead of silent corruption.
type FrameBuf struct {
	buf      []byte // the frame's body: a window of slab.buf
	slab     *slab
	released atomic.Bool
	owner    memory.LoanOwner
}

// slabSize is the read-ahead unit: one Read fills as much of a slab as the
// socket has, and every frame that arrived whole in it is delivered without
// another syscall or copy.
const slabSize = 16 << 10

// slab is a read-ahead buffer shared by the FrameReader filling it and the
// frames carved out of it. It is slabSize bytes and pooled, or sized to one
// frame longer than that and left to the collector. It is given back when
// the reader has moved on and the last carved frame is released.
type slab struct {
	buf  []byte
	refs atomic.Int32
}

var (
	// slabPool keeps read-ahead slabs warm: a reader whose slab is used up
	// while frames still view it moves on to a fresh one, so a connection
	// whose consumers hold frames draws one per slab's worth of traffic.
	slabPool = sync.Pool{New: func() any { return &slab{buf: make([]byte, slabSize)} }}
	// viewPool keeps the *FrameBuf headers of released frames, so carving
	// a frame allocates nothing at steady state.
	viewPool sync.Pool
)

// acquireSlab returns an empty slab of at least size bytes with one
// reference, the caller's: a pooled one, or for size over slabSize an
// unpooled one of exactly size bytes.
func acquireSlab(size int) *slab {
	var s *slab
	if size <= slabSize {
		s = slabPool.Get().(*slab)
	} else {
		s = &slab{buf: make([]byte, size)}
	}
	s.refs.Store(1)
	if leakCheck.Load() {
		leakRegister(s)
	}
	return s
}

// release drops one reference; the last one gives the slab back.
func (s *slab) release() {
	if s.refs.Add(-1) > 0 {
		return
	}
	if leakCheck.Load() {
		leakUnregister(s)
	}
	if len(s.buf) == slabSize {
		slabPool.Put(s)
	}
}

// carve returns a frame viewing s.buf[off:off+n], owned by the caller. The
// view keeps the slab alive until its Release.
func (s *slab) carve(off, n int) *FrameBuf {
	frameAcquires.Add(1)
	f, _ := viewPool.Get().(*FrameBuf)
	if f == nil {
		f = new(FrameBuf)
	} else {
		frameRecycles.Add(1)
	}
	s.refs.Add(1)
	f.slab, f.buf = s, s.buf[off:off+n:off+n]
	f.released.Store(false)
	if leakCheck.Load() {
		leakRegister(f)
	}
	return f
}

// Frame telemetry: acquires, pool recycles, explicit Detach copies, and the
// bytes a FrameReader had to move to keep a frame whole in one slab. The
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
	// Recycled counts frames whose header came back from the pool rather
	// than being freshly allocated (a lower bound: sync.Pool may drop them
	// under GC).
	Recycled int64
	// Detached counts explicit Detach copies out of frames.
	Detached int64
	// MovedBytes counts bytes a FrameReader copied within or between slabs:
	// the received part of a frame that would have run past its slab's end,
	// header included, and header bytes it carried to a slab's start
	// between frames.
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

// AcquireFrame returns a frame whose body is n bytes, carved from a slab of
// its own, owned by the caller. The slab is a pooled one up to
// slabSize bytes and an unpooled one beyond.
func AcquireFrame(n int) *FrameBuf {
	s := acquireSlab(n)
	f := s.carve(0, n)
	s.release()
	return f
}

// Body returns the frame's bytes. The slice is valid until the frame's
// Release; after it the bytes may be recycled at any moment.
func (f *FrameBuf) Body() []byte { return f.buf }

// Release ends the frame: it revokes every loan issued from the frame and
// gives its slab reference back; any Bytes() on a view still in use fails
// with memory.ErrStale from that point on. A second Release panics.
func (f *FrameBuf) Release() {
	if f.released.Swap(true) {
		panic("giop: Release of an already-released FrameBuf")
	}
	f.owner.Revoke()
	if leakCheck.Load() {
		leakUnregister(f)
	}
	s := f.slab
	f.slab, f.buf = nil, nil
	viewPool.Put(f)
	s.release()
}

// Lend issues a revocable loan of b, which must alias the frame's buffer.
// The loan fails with memory.ErrStale once the frame is released —
// the scope rule that makes borrowed decode views safe to hand to handlers.
func (f *FrameBuf) Lend(b []byte) memory.Loan { return f.owner.Lend(b) }

// Detach copies the frame body into fresh caller-owned memory — the
// explicit escape hatch for a handler that needs the bytes past its return
// (and past the frame's release). The copy is counted in FrameStats.
func (f *FrameBuf) Detach() []byte {
	frameDetaches.Add(1)
	out := make([]byte, len(f.buf))
	copy(out, f.buf)
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

// leakRegister records f with the site that asked for it: the caller of the
// function that called carve or acquireSlab.
func leakRegister(f any) {
	site := "unknown"
	if _, file, line, ok := runtime.Caller(3); ok {
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
// slabs not yet given back, one string per live object. Tests enable leak-check
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
