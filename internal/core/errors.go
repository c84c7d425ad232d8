package core

import "errors"

var (
	// ErrBufferFull reports a Send to an In port whose bounded message
	// buffer is at capacity.
	ErrBufferFull = errors.New("core: in-port buffer full")

	// ErrPoolEmpty reports GetMessage on an exhausted message pool: every
	// pooled instance is currently in flight.
	ErrPoolEmpty = errors.New("core: message pool empty")

	// ErrTypeMismatch reports connecting or sending across ports whose
	// message types do not match exactly.
	ErrTypeMismatch = errors.New("core: message type mismatch")

	// ErrUnknownPort reports a destination port name that no registered
	// port or child definition provides.
	ErrUnknownPort = errors.New("core: unknown port")

	// ErrUnknownChild reports Connect on a child name with no definition.
	ErrUnknownChild = errors.New("core: unknown child component")

	// ErrDuplicateName reports registering a component, child definition, or
	// port under a name already in use.
	ErrDuplicateName = errors.New("core: duplicate name")

	// ErrBadName reports a component or port name containing the '.'
	// qualifier separator or being empty.
	ErrBadName = errors.New("core: invalid name")

	// ErrStopped reports an operation on a stopped App or a disposed
	// component.
	ErrStopped = errors.New("core: stopped")

	// ErrNotSerializable reports using the serialization mechanism with a
	// message type that does not implement encoding.BinaryMarshaler and
	// encoding.BinaryUnmarshaler.
	ErrNotSerializable = errors.New("core: message type is not serializable")

	// ErrNeedsCallerContext reports a handoff-mechanism Send issued outside
	// a component execution context (handoff requires the sender's scope
	// stack).
	ErrNeedsCallerContext = errors.New("core: handoff mechanism requires the sender's context")

	// ErrDrainTimeout reports a Drain or Swap whose bounded
	// wait for quiescence expired with work still in flight.
	ErrDrainTimeout = errors.New("core: drain timed out")
)
