package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Threading selects an In port's dispatch policy (CCL <Threadpool>).
type Threading int

// Dispatch policies. Shared ports draw workers from the SMM's one shared
// pool; Dedicated ports own a pool; a Synchronous port (the paper's pool size
// zero) has neither pool nor buffer: a send to it is a call on the sender's thread.
const (
	ThreadingShared Threading = iota + 1
	ThreadingDedicated
	ThreadingSynchronous
)

// String returns the CCL spelling of the policy.
func (t Threading) String() string {
	switch t {
	case ThreadingShared:
		return "Shared"
	case ThreadingDedicated:
		return "Dedicated"
	case ThreadingSynchronous:
		return "Synchronous"
	default:
		return fmt.Sprintf("Threading(%d)", int(t))
	}
}

// DefaultBufferSize is the In-port buffer capacity when the config leaves
// it zero.
const DefaultBufferSize = 8

// Overflow selects what a Send does when an In port's bounded buffer is at
// capacity. A hard-real-time system cannot let queues grow without bound;
// the policy makes the full-buffer behaviour an explicit per-port choice,
// fixed when the port is declared.
type Overflow int

const (
	// OverflowReject fails the Send with ErrBufferFull (the default; the
	// paper's hard backpressure stance).
	OverflowReject Overflow = iota
	// OverflowBlock parks the sender until a slot frees (or the port shuts
	// down). Do not combine with ThreadingSynchronous self-sends: the
	// sender would wait on itself.
	OverflowBlock
)

// String returns the policy name.
func (o Overflow) String() string {
	switch o {
	case OverflowReject:
		return "Reject"
	case OverflowBlock:
		return "Block"
	default:
		return fmt.Sprintf("Overflow(%d)", int(o))
	}
}

// TenantClassed is implemented by messages that carry a tenant fairness
// class (see sched.MaxTenantClasses); a buffered In port queues them in that
// class's lane. Messages without it ride class 0.
type TenantClassed interface{ TenantClass() uint8 }

// ShedAware is implemented by messages that must observe being dropped
// unhandled after they were queued — orphaned by a shutdown — so upstream
// accounting (admission controllers, in-flight limiters) can release the
// resources reserved for them. OnShed runs before the message's envelope is
// released, at most once per delivery.
type ShedAware interface{ OnShed() }

// InPortConfig parameterises AddInPort. It mirrors the paper's
// addInPort(name, smm, msgType, bufferSize, strategy, minPool, maxPool,
// handler).
type InPortConfig struct {
	// Name is the port name, unique within the component.
	Name string
	// Type is the message type accepted by the port.
	Type MessageType
	// BufferSize bounds the port's message buffer; zero selects
	// DefaultBufferSize. It and Overflow describe a buffered port; a
	// Synchronous port has nothing to overflow and ignores them.
	BufferSize int
	// Threading selects the dispatch policy; zero selects ThreadingShared.
	Threading Threading
	// MinThreads/MaxThreads size the thread pool (ignored for
	// ThreadingSynchronous). Zero values select 1 and 4.
	MinThreads, MaxThreads int
	// Overflow selects the buffer-full policy; zero selects OverflowReject.
	Overflow Overflow
	// Handler processes arriving messages. Required.
	Handler Handler
}

// OutPortConfig parameterises AddOutPort. It mirrors the paper's
// addOutPort(name, smm, msgType, destination...).
type OutPortConfig struct {
	// Name is the port name, unique within the component.
	Name string
	// Type is the message type emitted by the port.
	Type MessageType
	// Dests are qualified destination In-port names ("Component.Port").
	// A send fans out to all of them.
	Dests []string
}

// bufItem is one queued delivery.
type bufItem struct {
	env   *envelope
	msg   Message
	prio  sched.Priority
	owner *Component
}

// drop releases a queued delivery that a shutdown orphaned: it will never be
// handled.
func (it bufItem) drop() {
	if sa, ok := it.msg.(ShedAware); ok {
		sa.OnShed()
	}
	it.env.done()
	it.owner.release(pendingOne, 0)
}

// portBinding is an InPort's current owner/handler pair, swapped atomically
// on (re)instantiation so the send path reads it without a lock.
type portBinding struct {
	owner   *Component // nil while the owning child is not instantiated
	handler Handler
}

// InPort receives messages for a component. The port structure (buffer,
// thread pool, message pool share) lives in the mediating SMM's memory area
// and persists across re-instantiations of a transient child; only the
// owner/handler binding changes.
type InPort struct {
	qname       string // "Component.Port"
	short       string
	typ         MessageType
	synchronous bool // no buffer, pool or dispatchFn: SMM.deliver is the port

	// mu guards only the buffer; the binding and the stats counters are
	// read and written without it.
	// The buffer: queued items sit in slab, preallocated at the declared
	// capacity; queue orders their slab indices — by priority band, then by
	// the message's tenant lane, FIFO within a lane — and free recycles
	// vacated ones.
	mu       sync.Mutex
	queue    sched.FairQueue
	slab     []bufItem
	free     []uint32
	capacity int
	closed   bool
	overflow Overflow
	notFull  *sync.Cond // non-nil only for OverflowBlock ports

	bound      atomic.Pointer[portBinding]
	pool       *sched.Pool
	dispatchFn func(sched.Priority) // created once; avoids a closure per send

	received  atomic.Int64 // buffered ports; a synchronous port counts only processed
	processed atomic.Int64
	dropped   atomic.Int64
	depthMax  atomic.Int64 // queue depth high-water mark

	label  telemetry.LabelID
	gauges *telemetry.GaugeHandle
}

// Name returns the qualified port name ("Component.Port").
func (p *InPort) Name() string { return p.qname }

// Type returns the port's message type.
func (p *InPort) Type() MessageType { return p.typ }

// newInPort builds a port and, unless it is synchronous, its buffer from an
// already-defaulted config; the caller attaches the dispatch pool and binding.
func newInPort(qname string, cfg InPortConfig) *InPort {
	if cfg.Threading == ThreadingSynchronous {
		return &InPort{
			qname: qname, short: cfg.Name, typ: cfg.Type,
			synchronous: true, label: telemetry.Label(qname),
		}
	}
	p := &InPort{
		qname:    qname,
		short:    cfg.Name,
		typ:      cfg.Type,
		queue:    *sched.NewFairQueue(nil),
		slab:     make([]bufItem, cfg.BufferSize),
		free:     make([]uint32, cfg.BufferSize),
		capacity: cfg.BufferSize,
		overflow: cfg.Overflow,
		label:    telemetry.Label(qname),
	}
	for i := range p.free {
		p.free[i] = uint32(cfg.BufferSize - 1 - i)
	}
	if cfg.Overflow == OverflowBlock {
		p.notFull = sync.NewCond(&p.mu)
	}
	return p
}

// push enqueues an item, applying the port's overflow policy (refuse or
// wait) when the buffer is at capacity. The buffer is a priority queue: pop
// hands out the highest-priority pending message (a band shared across
// tenant lanes by deficit round robin, FIFO within a lane), so the pool
// worker that dequeues — itself scheduled at the message's priority —
// processes the message that justified its priority.
// Slab and queue are preallocated at the port's declared capacity, so push
// never allocates once a priority level has been used.
func (p *InPort) push(it bufItem) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrStopped, p.qname)
	}
	if p.queue.Len() == p.capacity {
		if p.overflow != OverflowBlock {
			p.mu.Unlock()
			p.dropped.Add(1)
			return fmt.Errorf("%w: %q (capacity %d)", ErrBufferFull, p.qname, p.capacity)
		}
		for p.queue.Len() == p.capacity && !p.closed {
			p.notFull.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return fmt.Errorf("%w: %q", ErrStopped, p.qname)
		}
	}
	var class uint8
	if tc, ok := it.msg.(TenantClassed); ok {
		class = tc.TenantClass()
	}
	h := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.slab[h] = it
	p.queue.Push(h, class, it.prio, 0)
	if d := int64(p.queue.Len()); d > p.depthMax.Load() {
		p.depthMax.Store(d) // still under mu, so load+store cannot regress
	}
	p.mu.Unlock()
	p.received.Add(1)
	return nil
}

// takeSlotLocked vacates slab slot h, which the queue no longer holds, and
// returns its item. Small enough to inline: the item is copied once.
func (p *InPort) takeSlotLocked(h uint32) bufItem {
	it := p.slab[h]
	p.slab[h] = bufItem{}
	p.free = append(p.free, h)
	return it
}

// slotFreedLocked lets a sender parked on a full Block port proceed.
func (p *InPort) slotFreedLocked() {
	if p.notFull != nil {
		p.notFull.Signal()
	}
}

// pop dequeues the next item in queue order; ok reports whether one was
// present.
func (p *InPort) pop() (bufItem, bool) {
	var it bufItem
	p.mu.Lock()
	h, ok := p.queue.Pop()
	if ok {
		it = p.takeSlotLocked(h)
		p.slotFreedLocked()
	}
	p.mu.Unlock()
	return it, ok
}

// removeItem removes the exact queued delivery identified by its envelope
// and message, reporting whether it was still buffered. Used when a
// dispatch submission fails after the item was pushed: the caller must
// retract that item, not whichever is next in queue order.
func (p *InPort) removeItem(env *envelope, msg Message) (bufItem, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for h := range p.slab {
		if p.slab[h].env == env && p.slab[h].msg == msg && p.queue.Remove(uint32(h)) {
			p.slotFreedLocked()
			return p.takeSlotLocked(uint32(h)), true
		}
	}
	return bufItem{}, false
}

// closePort wakes blocked senders and refuses further pushes; called when
// the mediating SMM shuts down.
func (p *InPort) closePort() {
	p.mu.Lock()
	p.closed = true
	if p.notFull != nil {
		p.notFull.Broadcast()
	}
	p.mu.Unlock()
}

// binding returns the current owner and handler.
func (p *InPort) binding() (*Component, Handler) {
	b := p.bound.Load()
	if b == nil {
		return nil, nil
	}
	return b.owner, b.handler
}

// bind attaches the port to a (re)instantiated owner.
func (p *InPort) bind(owner *Component, h Handler) {
	p.bound.Store(&portBinding{owner: owner, handler: h})
}

// unbind detaches the port from owner if it is still bound to it. The
// handler is kept, matching the port structure surviving the instance: a
// delivery already buffered drains against the old handler. The CAS leaves
// alone a binding the owner's successor has already taken.
func (p *InPort) unbind(owner *Component) {
	if b := p.bound.Load(); b != nil && b.owner == owner {
		p.bound.CompareAndSwap(b, &portBinding{handler: b.handler})
	}
}

// OutPort sends messages from a component. Like InPort, the structure
// persists in the SMM across owner re-instantiations.
type OutPort struct {
	qname string
	short string
	typ   MessageType
	smm   *SMM
	pool  *msgPool // resolved once at registration; pools are never removed

	dests  atomic.Pointer[[]string] // immutable destination list
	routes atomic.Pointer[routeSet] // cached resolution, see SMM.routesFor
	sent   atomic.Int64

	label  telemetry.LabelID
	gauges *telemetry.GaugeHandle
}

// Name returns the qualified port name ("Component.Port").
func (p *OutPort) Name() string { return p.qname }

// Type returns the port's message type.
func (p *OutPort) Type() MessageType { return p.typ }

// Dests returns the destination port names. The returned slice is shared
// and immutable: callers must not modify it. It is replaced wholesale (and
// the port's route cache invalidated) only when the port is re-registered
// with a different destination list.
func (p *OutPort) Dests() []string {
	d := p.dests.Load()
	if d == nil {
		return nil
	}
	return *d
}

// setDests installs a new immutable destination list.
func (p *OutPort) setDests(dests []string) {
	p.dests.Store(&dests)
	p.routes.Store(nil)
}

// Sent reports the number of successful Send calls.
func (p *OutPort) Sent() int64 {
	return p.sent.Load()
}

// GetMessage takes a message instance from the SMM's pool for this port's
// type, per the paper's getMessage(). The instance must either be sent
// (ownership transfers to the framework) or returned with PutBack.
func (p *OutPort) GetMessage() (Message, error) {
	return p.pool.get()
}

// PutBack returns an unsent message to the pool.
func (p *OutPort) PutBack(m Message) {
	p.pool.put(m)
}

// refuse recycles a message whose send could not start, and returns err.
func (p *OutPort) refuse(m Message, err error) error {
	p.pool.put(m)
	return err
}

// Send delivers msg to every connected destination at the given priority
// using the SMM's configured cross-scope mechanism. A handler the send calls
// on this thread (a synchronous port's) runs on a pooled memory context that
// enters the receiver's scope chain from the top. Send consumes msg whether
// it succeeds or not — a failed send has recycled it (Reset ran): the caller
// neither reuses it nor puts it back.
func (p *OutPort) Send(msg Message, prio sched.Priority) error {
	return p.smm.send(p, nil, msg, prio)
}

// SendFrom is Send on the sender's own memory context, which must belong to
// the calling goroutine: a handler the send calls leaves the sender's scope
// through the deepest area it shares with the receiver and enters only what
// lies below — one area from the receiver's parent. Prefer it with a Proc in
// hand; the handoff mechanism requires it. Like Send, it consumes msg on every
// outcome.
func (p *OutPort) SendFrom(proc *Proc, msg Message, prio sched.Priority) error {
	return p.smm.send(p, proc, msg, prio)
}

// AddInPort declares an In port on component c, mediated by smm. The SMM's
// owner must be c or an ancestor of c (external ports register with the
// parent's or an ancestor's SMM; internal ports with the component's own).
func AddInPort(c *Component, smm *SMM, cfg InPortConfig) (*InPort, error) {
	return smm.registerIn(c, cfg)
}

// AddOutPort declares an Out port on component c, mediated by smm, with the
// given qualified destinations. The same ancestor rule as AddInPort applies;
// registering with a non-immediate ancestor's SMM creates a shadow port.
func AddOutPort(c *Component, smm *SMM, cfg OutPortConfig) (*OutPort, error) {
	return smm.registerOut(c, cfg)
}
