package core

import (
	"repro/internal/memory"
	"repro/internal/sched"
)

// Proc is the execution context handed to message handlers and start
// functions. It mirrors the paper's process(Object data, SMM smm) signature
// while also exposing the memory context of the executing (simulated)
// real-time thread, which sits in the owning component's memory area.
type Proc struct {
	comp *Component
	smm  *SMM
	ctx  *memory.Context
	prio sched.Priority
}

// NewProc builds an execution context for code driving ports from outside a
// handler — e.g. an application thread that must trigger the first message
// through the handoff mechanism. ctx must be current in comp's memory area
// (typically obtained inside Component.Exec).
func NewProc(comp *Component, smm *SMM, ctx *memory.Context, prio sched.Priority) *Proc {
	return &Proc{comp: comp, smm: smm, ctx: ctx, prio: prio}
}

// SMM returns the scoped memory manager mediating the port — the manager the
// paper passes to every process() invocation.
func (p *Proc) SMM() *SMM { return p.smm }

// Context returns the executing thread's memory context, current in the
// component's memory area. Use it to allocate in the component's region or
// to send via the handoff mechanism.
func (p *Proc) Context() *memory.Context { return p.ctx }

// Priority returns the priority inherited from the message being processed.
func (p *Proc) Priority() sched.Priority { return p.prio }

// Handler processes messages arriving at an In port.
//
// Handlers run in the receiving component's memory area: allocations through
// p.Context() are charged to that area and obey the RTSJ access rules. The
// message must not be retained past the call — it returns to its pool when
// every receiver has processed it.
type Handler interface {
	Process(p *Proc, msg Message) error
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(p *Proc, msg Message) error

// Process implements Handler.
func (f HandlerFunc) Process(p *Proc, msg Message) error { return f(p, msg) }
