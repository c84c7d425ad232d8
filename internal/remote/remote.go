// Package remote implements the paper's stated future work: "code
// generation for transparently handling remote communication over a
// network" — here delivered as a library that stretches a port connection
// across two processes using the Compadres ORB.
//
// On the serving side, Export publishes a local In port: a servant keyed
// "port:<Component.Port>" decodes arriving messages and sends them into the
// port at the propagated RT-CORBA priority. On the calling side, NewProxy
// binds to an exported port, and Bind grafts the proxy onto a local In port
// so that ordinary components — which only ever talk to ports — reach the
// remote component without knowing a network exists:
//
//	local Out port ──> bridge In port ──(ORB/GIOP)──> exported remote In port
//
// Messages crossing the network must implement encoding.BinaryMarshaler and
// encoding.BinaryUnmarshaler; this is the serialization cross-scope
// mechanism of §2.2 applied across address spaces, where the shared-object
// mechanism cannot reach.
//
// All proxies built on one client share that client's single multiplexed
// GIOP connection: concurrent Sends — through one proxy or many — pipeline
// over it rather than serialising whole exchanges, so a bridge carrying
// several components' traffic never queues one port's messages behind
// another port's round trip.
package remote

import (
	"encoding"
	"fmt"

	"repro/internal/corba"
	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/sched"
)

// keyPrefix namespaces exported ports in the servant registry.
const keyPrefix = "port:"

// PortKey returns the servant-registry object key of the exported port named
// dest ("Component.Port") — the key Locate probes carry and group
// directories (internal/cluster) index their membership under.
func PortKey(dest string) string { return keyPrefix + dest }

// ErrNotSerializable reports a message type without binary marshalling,
// which cannot cross the network.
var ErrNotSerializable = fmt.Errorf("remote: message type is not binary-(un)marshalable")

// Export publishes the In port named dest (qualified, "Component.Port",
// mediated by smm) on the ORB server. Arriving messages are drawn from the
// SMM's pool for typ, decoded, and sent into the port at the priority the
// caller propagated.
func Export(srv *orb.Server, smm *core.SMM, dest string, typ core.MessageType) error {
	if !isSerializable(typ) {
		return fmt.Errorf("%w: %q", ErrNotSerializable, typ.Name)
	}
	// A relay Out port owned by the SMM's owner feeds the exported port;
	// the network-facing servant never touches SMM internals.
	relayName := "remoteExport_" + sanitizePort(dest)
	relay, err := core.AddOutPort(smm.Owner(), smm, core.OutPortConfig{
		Name: relayName, Type: typ, Dests: []string{dest},
	})
	if err != nil {
		return fmt.Errorf("remote export %q: %w", dest, err)
	}
	srv.RegisterServant(keyPrefix+dest, &exportServant{relay: relay, typ: typ})
	return nil
}

// exportServant decodes one message per "send" invocation and relays it
// into the exported port.
type exportServant struct {
	relay *core.OutPort
	typ   core.MessageType
}

// Invoke implements corba.Servant (normal-priority fallback).
func (s *exportServant) Invoke(op string, in []byte) ([]byte, error) {
	return s.InvokeWithPriority(op, in, byte(sched.NormPriority))
}

// InvokeWithPriority implements corba.PrioritizedServant.
func (s *exportServant) InvokeWithPriority(op string, in []byte, priority byte) ([]byte, error) {
	if op != "send" {
		return nil, fmt.Errorf("remote: exported port has no operation %q", op)
	}
	msg, err := s.relay.GetMessage()
	if err != nil {
		return nil, err
	}
	um, ok := msg.(encoding.BinaryUnmarshaler)
	if !ok {
		s.relay.PutBack(msg)
		return nil, fmt.Errorf("%w: %q", ErrNotSerializable, s.typ.Name)
	}
	if err := um.UnmarshalBinary(in); err != nil {
		s.relay.PutBack(msg)
		return nil, fmt.Errorf("remote: decode %q: %w", s.typ.Name, err)
	}
	if err := s.relay.Send(msg, sched.Priority(priority)); err != nil {
		return nil, err
	}
	return nil, nil
}

// Proxy sends messages to an exported remote port through an ORB client.
// Proxies are safe for concurrent use: Sends from many goroutines (and from
// sibling proxies on the same client) pipeline over the client's one
// multiplexed connection instead of serialising.
//
// A proxy on a Collocate-enabled client (orb.ClientConfig.Collocate)
// inherits the collocated fast path: when the bound port's server lives in
// this process, Send dispatches the exported port's servant directly —
// message marshalling still runs (the receiving port unmarshals a copy
// either way), but the GIOP wire round trip disappears. The collocation
// decision is the client's: re-detected after every swap and retarget,
// falling back to the wire rather than holding a stale pointer.
type Proxy struct {
	cl   *orb.Client
	key  string
	typ  core.MessageType
	sync bool
}

// NewProxy binds to the exported port named dest on the server the client
// is connected to. When ackd is true every Send waits for the server's
// acknowledgement (flow control); otherwise sends are oneway.
func NewProxy(cl *orb.Client, dest string, typ core.MessageType, ackd bool) (*Proxy, error) {
	if !isSerializable(typ) {
		return nil, fmt.Errorf("%w: %q", ErrNotSerializable, typ.Name)
	}
	return &Proxy{cl: cl, key: keyPrefix + dest, typ: typ, sync: ackd}, nil
}

// Send marshals the message and delivers it to the remote port at the given
// priority.
func (p *Proxy) Send(msg core.Message, prio sched.Priority) error {
	bm, ok := msg.(encoding.BinaryMarshaler)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotSerializable, p.typ.Name)
	}
	data, err := bm.MarshalBinary()
	if err != nil {
		return fmt.Errorf("remote: encode %q: %w", p.typ.Name, err)
	}
	if p.sync {
		_, err = p.cl.Invoke(p.key, "send", data, prio)
		return err
	}
	return p.cl.InvokeOneway(p.key, "send", data, prio)
}

// Bind grafts the proxy onto a local In port named portName on comp
// (mediated by smm): every message arriving there is forwarded to the
// remote port, making the remote component addressable by local port
// connections. The returned In port's qualified name is what local Out
// ports list as their destination.
func Bind(comp *core.Component, smm *core.SMM, portName string, proxy *Proxy) (*core.InPort, error) {
	return core.AddInPort(comp, smm, core.InPortConfig{
		Name: portName,
		Type: proxy.typ,
		Handler: core.HandlerFunc(func(p *core.Proc, m core.Message) error {
			return proxy.Send(m, p.Priority())
		}),
	})
}

func isSerializable(typ core.MessageType) bool {
	if typ.New == nil {
		return false
	}
	probe := typ.New()
	_, canMarshal := probe.(encoding.BinaryMarshaler)
	_, canUnmarshal := probe.(encoding.BinaryUnmarshaler)
	return canMarshal && canUnmarshal
}

func sanitizePort(dest string) string {
	out := make([]byte, 0, len(dest))
	for i := 0; i < len(dest); i++ {
		c := dest[i]
		if c == '.' {
			out = append(out, '_')
			continue
		}
		out = append(out, c)
	}
	return string(out)
}

var _ corba.PrioritizedServant = (*exportServant)(nil)
