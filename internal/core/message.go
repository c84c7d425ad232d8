package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/memory"
	"repro/internal/telemetry"
)

// Message is a value exchanged through ports. Messages are pooled, so they
// must be resettable to a clean state before reuse. To be usable with the
// serialization cross-scope mechanism a message additionally implements
// encoding.BinaryMarshaler and encoding.BinaryUnmarshaler.
//
// The paper requires messages to be "RTSJ-safe": all data reachable from a
// message must live in the same memory area as the message itself. The Go
// analogue is that a Message must own its payload (no aliasing of buffers
// owned by other components).
type Message interface {
	Reset()
}

// MessageType names a pooled message type and knows how to create
// instances. Name equality is the port-compatibility check (the paper's
// "message types must match exactly"); Size is the byte cost charged to the
// owning memory area per pooled instance.
type MessageType struct {
	// Name identifies the type in CDL files and connection checks.
	Name string
	// Size is the per-instance byte charge against the pool's memory area.
	Size int
	// New allocates a fresh instance.
	New func() Message
}

// valid reports a usable type descriptor.
func (t MessageType) valid() bool {
	return t.Name != "" && t.Size > 0 && t.New != nil
}

// msgPool is a fixed-capacity pool of messages of one type, allocated in an
// SMM's memory area. It mirrors the paper's "message pool per message type
// in the parent component's SMM": getMessage hands out an instance, send
// transfers it, and the framework returns it after the receiver has
// processed it, so parent areas never grow without bound.
type msgPool struct {
	typ  MessageType
	area *memory.Area
	ref  memory.Ref // the arena charge for the pooled instances

	// mu guards free: a get or a put is one lock pair and no other atomic
	// read-modify-write.
	mu    sync.Mutex
	free  []Message
	total int

	inFlightMax atomic.Int64 // high-water mark of outstanding instances

	gauges *telemetry.GaugeHandle
}

// newMsgPool charges capacity*typ.Size bytes to area and pre-creates the
// instances.
func newMsgPool(typ MessageType, area *memory.Area, ctx *memory.Context, capacity int) (*msgPool, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("core: message pool %q: non-positive capacity %d", typ.Name, capacity)
	}
	ref, err := ctx.AllocIn(area, capacity*typ.Size)
	if err != nil {
		return nil, fmt.Errorf("message pool %q in %q: %w", typ.Name, area.Name(), err)
	}
	p := &msgPool{typ: typ, area: area, ref: ref, total: capacity}
	p.free = make([]Message, 0, capacity)
	for i := 0; i < capacity; i++ {
		p.free = append(p.free, typ.New())
	}
	return p, nil
}

// get takes an instance, or reports ErrPoolEmpty when all are in flight.
func (p *msgPool) get() (Message, error) {
	p.mu.Lock()
	n := len(p.free)
	if n == 0 {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: type %q in %q (%d in flight)", ErrPoolEmpty, p.typ.Name, p.area.Name(), p.total)
	}
	m := p.free[n-1]
	p.free = p.free[:n-1]
	if f := int64(p.total - n + 1); f > p.inFlightMax.Load() {
		p.inFlightMax.Store(f) // still under mu, so load+store cannot regress
	}
	p.mu.Unlock()
	return m, nil
}

// put resets and returns an instance to the pool.
func (p *msgPool) put(m Message) {
	m.Reset()
	p.mu.Lock()
	p.free = append(p.free, m)
	p.mu.Unlock()
}

// envelope tracks one sent message through all of its receivers so it can
// be returned to its pool exactly once. Envelopes themselves are recycled
// through a sync.Pool, so the steady-state send path does not allocate one
// per message.
type envelope struct {
	msg       Message
	pool      *msgPool
	remaining atomic.Int32
}

var envelopePool = sync.Pool{New: func() any { return new(envelope) }}

// newEnvelope takes a recycled envelope and arms it for n receivers.
func newEnvelope(msg Message, pool *msgPool, n int) *envelope {
	e := envelopePool.Get().(*envelope)
	e.msg, e.pool = msg, pool
	e.remaining.Store(int32(n))
	return e
}

// done records one receiver finishing; the last one recycles the message
// and returns the envelope to its pool.
func (e *envelope) done() {
	if e.remaining.Add(-1) != 0 {
		return
	}
	if e.pool != nil {
		e.pool.put(e.msg)
	}
	e.msg, e.pool = nil, nil
	envelopePool.Put(e)
}
