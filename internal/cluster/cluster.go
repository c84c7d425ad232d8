// Package cluster is the fabric that backs an exported servant with a
// *group* of server processes. It composes the machinery of the ORB —
// forwarding Locate replies (giop.LocateObjectForward), the multi-member
// client (orb.ClientConfig.Addrs/Resolve: one connection per member),
// per-member breakers and single-flight redial — into a
// horizontal-scale-out story:
//
//	directory ──(LocateObjectForward: m0,m1,m2)──> cluster.Client
//	                                                   │ members picked P2C
//	                                       ┌───────────┼───────────┐
//	                                    replica m0  replica m1  replica m2
//
// A Directory holds the authoritative member list per group and answers
// Locate probes through any orb.Server it is attached to. Clients resolve a
// group once at dial time and re-resolve on member death (a failed redial
// triggers the orb client's Resolve hook) and periodically (the refresher),
// so a killed member fails over without tripping any breaker and a re-added
// member heals back into rotation.
package cluster

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/giop"
	"repro/internal/orb"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// ErrUnknownGroup reports a Locate probe the directory could not forward.
var ErrUnknownGroup = errors.New("cluster: unknown group")

// Cluster counters, exported at /metrics with the compadres_ prefix.
var (
	// directoryResolveTotal counts Locate probes the directory answered
	// with a forwarding list.
	directoryResolveTotal = telemetry.NewCounter("directory_resolve_total")
)

// Directory is the group-membership authority: an ordered address list per
// group key (conventionally remote.PortKey("Instance.Port")). Attach it to
// an orb.Server and Locate probes for a group answer LocateObjectForward
// with the current members. All methods are safe for concurrent use.
type Directory struct {
	mu     sync.Mutex
	groups map[string][]string
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{groups: make(map[string][]string)}
}

// Set replaces a group's member list (copied).
func (d *Directory) Set(group string, addrs ...string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.groups[group] = append([]string(nil), addrs...)
}

// Add appends a member to a group if not already present.
func (d *Directory) Add(group, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, a := range d.groups[group] {
		if a == addr {
			return
		}
	}
	d.groups[group] = append(d.groups[group], addr)
}

// Remove deletes a member from a group (a killed or drained replica).
func (d *Directory) Remove(group, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.groups[group]
	for i, a := range cur {
		if a == addr {
			d.groups[group] = append(append([]string(nil), cur[:i]...), cur[i+1:]...)
			return
		}
	}
}

// Members returns a copy of a group's current member list.
func (d *Directory) Members(group string) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.groups[group]...)
}

// Forwarder returns the locate-forwarder function serving this directory:
// object keys matching a non-empty group answer its member list.
func (d *Directory) Forwarder() func(key []byte) []string {
	return func(key []byte) []string {
		d.mu.Lock()
		members := d.groups[string(key)]
		var out []string
		if len(members) > 0 {
			out = append([]string(nil), members...)
		}
		d.mu.Unlock()
		if out != nil {
			directoryResolveTotal.Inc()
		}
		return out
	}
}

// Attach installs the directory's forwarder on srv, making it a directory
// endpoint: Locate probes for any registered group forward to the members.
func (d *Directory) Attach(srv *orb.Server) {
	srv.SetLocateForwarder(d.Forwarder())
}

// Resolve asks the directory endpoint at addr for the members of group: one
// raw LocateRequest/LocateReply exchange on a fresh connection (no client
// machinery — resolution must work while every member connection is down). A
// LocateObjectHere answer means addr itself serves the group (a directory
// co-hosted with a singleton servant) and resolves to [addr].
func Resolve(network transport.Network, addr, group string) ([]string, error) {
	conn, err := network.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: resolve %q at %q: %w", group, addr, err)
	}
	defer conn.Close()
	wire := giop.MarshalLocateRequest(nil, giop.BigEndian, &giop.LocateRequest{
		RequestID: 1, ObjectKey: []byte(group),
	})
	if _, err := conn.Write(wire); err != nil {
		return nil, fmt.Errorf("cluster: resolve %q at %q: %w", group, addr, err)
	}
	fr := giop.NewFrameReader(conn, giop.DefaultMaxMessage)
	defer fr.Close()
	h, fb, err := fr.NextFrame()
	if err != nil {
		return nil, fmt.Errorf("cluster: resolve %q at %q: %w", group, addr, err)
	}
	defer fb.Release()
	if h.Type != giop.MsgLocateReply {
		return nil, fmt.Errorf("cluster: resolve %q at %q: unexpected %v message", group, addr, h.Type)
	}
	var rep giop.LocateReply
	if err := giop.DecodeLocateReply(h.Order, fb.Body(), &rep); err != nil {
		return nil, fmt.Errorf("cluster: resolve %q at %q: %w", group, addr, err)
	}
	switch rep.Status {
	case giop.LocateObjectForward:
		if len(rep.Forward) == 0 {
			return nil, fmt.Errorf("cluster: resolve %q at %q: empty forward list", group, addr)
		}
		return rep.Forward, nil
	case giop.LocateObjectHere:
		return []string{addr}, nil
	default:
		return nil, fmt.Errorf("%w: %q at %q", ErrUnknownGroup, group, addr)
	}
}
