// Package deploy runs compiled Compadres applications as processes of a
// distributed system — the paper's future-work vision ("code generation for
// transparently handling remote communication over a network") completed
// end to end: CCL documents declare <Exported> In ports and
// <PortType>Remote</PortType> links, the compiler plans them
// (compiler.Plan.Exports / RemoteConnections), and Run wires them over the
// Compadres ORB using internal/remote.
//
// A deployment owns, besides the component application itself, the ORB
// server publishing the exported ports and one ORB client per distinct
// remote address. Close tears all of it down.
package deploy

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/remote"
	"repro/internal/transport"
)

// ErrDeploy is wrapped by deployment failures.
var ErrDeploy = errors.New("deploy: error")

// Config parameterises Run.
type Config struct {
	// Network carries the inter-process traffic. Required when the plan
	// has exports or remote connections.
	Network transport.Network
	// ListenAddr is where the ORB server binds when the plan exports
	// ports (for TCP, ":0" picks an ephemeral port).
	ListenAddr string
}

// Deployment is one running process of a distributed Compadres application.
type Deployment struct {
	// App is the local component application (already started).
	App *core.App
	// Server is the ORB server publishing exported ports; nil when the
	// plan exports nothing.
	Server *orb.Server

	clients map[string]*orb.Client

	// plan and reg remember what this process is running, so Apply can
	// validate and install live deltas against it.
	mu   sync.Mutex
	plan *compiler.Plan
	reg  *compiler.Registry
}

// Run assembles the plan, starts the application, publishes its exported
// ports, and bridges its remote links. The remote endpoints need not be up
// yet: ORB clients dial lazily, on the first message crossing the link.
func Run(plan *compiler.Plan, reg *compiler.Registry, cfg Config) (*Deployment, error) {
	needsNet := len(plan.Exports) > 0 || len(plan.RemoteConnections) > 0
	if needsNet && cfg.Network == nil {
		return nil, fmt.Errorf("%w: plan is distributed but no network configured", ErrDeploy)
	}

	app, err := compiler.Assemble(plan, reg)
	if err != nil {
		return nil, err
	}
	d := &Deployment{App: app, clients: make(map[string]*orb.Client), plan: plan, reg: reg}
	fail := func(err error) (*Deployment, error) {
		d.Close()
		return nil, err
	}

	// Publish exported ports before starting, so peers that race us see
	// every port as soon as the listener answers.
	if len(plan.Exports) > 0 {
		srv, err := orb.NewServer(orb.ServerConfig{Network: cfg.Network, Addr: cfg.ListenAddr})
		if err != nil {
			return fail(fmt.Errorf("%w: listen: %v", ErrDeploy, err))
		}
		d.Server = srv
		for _, exp := range plan.Exports {
			typ, ok := reg.Type(exp.MessageType)
			if !ok {
				return fail(fmt.Errorf("%w: export %s.%s: unregistered type %q",
					ErrDeploy, exp.Instance, exp.Port, exp.MessageType))
			}
			comp := app.Component(exp.Instance)
			if comp == nil {
				return fail(fmt.Errorf("%w: export %s.%s: no such instance", ErrDeploy, exp.Instance, exp.Port))
			}
			if err := remote.Export(srv, comp.SMM(), exp.Instance+"."+exp.Port, typ); err != nil {
				return fail(fmt.Errorf("%w: export %s.%s: %v", ErrDeploy, exp.Instance, exp.Port, err))
			}
		}
		srv.ServeBackground()
	}

	// Bridge remote links: one ORB client per distinct address, one proxy
	// In port per link, grafted onto the link's owning instance.
	for _, rc := range plan.RemoteConnections {
		cl, ok := d.clients[rc.Addr]
		if !ok {
			var err error
			cl, err = orb.DialClient(orb.ClientConfig{Network: cfg.Network, Addr: rc.Addr})
			if err != nil {
				return fail(fmt.Errorf("%w: remote %s: %v", ErrDeploy, rc.Addr, err))
			}
			d.clients[rc.Addr] = cl
		}
		typ, ok := reg.Type(rc.MessageType)
		if !ok {
			return fail(fmt.Errorf("%w: remote link %s.%s: unregistered type %q",
				ErrDeploy, rc.FromInstance, rc.FromPort, rc.MessageType))
		}
		proxy, err := remote.NewProxy(cl, rc.Dest, typ, true /* acknowledged */)
		if err != nil {
			return fail(fmt.Errorf("%w: remote link %s.%s: %v", ErrDeploy, rc.FromInstance, rc.FromPort, err))
		}
		comp := app.Component(rc.FromInstance)
		if comp == nil {
			return fail(fmt.Errorf("%w: remote link: no instance %q", ErrDeploy, rc.FromInstance))
		}
		if _, err := remote.Bind(comp, comp.SMM(), rc.BridgePort, proxy); err != nil {
			return fail(fmt.Errorf("%w: remote link %s.%s: %v", ErrDeploy, rc.FromInstance, rc.FromPort, err))
		}
	}

	if err := app.Start(); err != nil {
		return fail(err)
	}
	return d, nil
}

// Addr returns the exported-ports endpoint, or "" when nothing is exported.
func (d *Deployment) Addr() string {
	if d.Server == nil {
		return ""
	}
	return d.Server.Addr()
}

// Close stops the application, the server, and every outbound ORB client.
// It is idempotent.
func (d *Deployment) Close() {
	for _, cl := range d.clients {
		cl.Close()
	}
	d.clients = make(map[string]*orb.Client)
	if d.Server != nil {
		d.Server.Close()
	}
	if d.App != nil {
		d.App.Stop()
	}
}
