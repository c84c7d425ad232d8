// Package orb is the paper's "real-world example": a simple RT-CORBA ORB
// composed from Compadres components (§3.2, Fig. 10).
//
// The client is a three-level scoped structure: the ORB component lives in
// immortal memory; the Transport component is a scoped child the first wire
// invocation instantiates, and holds the connection — one per member of a
// replicated server (member.go); a MessageProcessing component is revived per
// request in the deepest scope, marshals the GIOP request there, writes it,
// and quiesces — its scope is reclaimed in place, kept by its parked shell
// for the next request. The invoking goroutine sends
// each request on the Transport's port into MessageProcessing, a call (the
// paper's pool size 0), then waits for its reply and, taking turns with the
// other waiters, reads the connection. The client owns no thread.
//
// The server is a four-level structure: ORB (immortal) → POA/Acceptor
// (scoped, accepts connections) → one Transport per connection (scoped,
// reads framed requests) → one RequestProcessing per request (deepest
// scope, demarshals, invokes the servant, marshals and writes the reply,
// then quiesces, its scope reclaimed in place like MessageProcessing's).
//
// Scope levels: the paper counts immortal memory as level 1, so its level-2
// client Transport is a level-1 child here, and the server's level-4
// RequestProcessing is a level-3 child.
//
// Every invocation takes one pipeline — classify, admit, span, deadline,
// transport, complete — whichever entry point made it: Client.call on the
// client, Server.admit and execute on the server. The wire (GIOP through the
// component structure above) and the direct transport (an in-process server,
// ClientConfig.Collocate) differ only in how a request reaches admit and how
// the answer gets back, so server-side policy is written once.
//
// Both this ORB and the hand-coded internal/rtzen baseline share the
// internal/giop codec, the internal/transport networks, and the
// internal/corba servants, so the Fig. 11 comparison isolates the component
// framework's overhead.
package orb
