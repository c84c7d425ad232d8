package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/orb"
	"repro/internal/transport"
)

// ClientConfig parameterises a replica-group client.
type ClientConfig struct {
	// Network carries both the directory exchange and the invocations.
	Network transport.Network
	// Directory is the address of a directory endpoint (an orb.Server with a
	// Directory attached) answering Locate probes for Group.
	Directory string
	// Group is the group key to resolve, conventionally
	// remote.PortKey("Instance.Port").
	Group string
	// Resilience tunes retries/breakers. Nil selects the defaults
	// (&orb.ResilienceConfig{}: 3 retries, breaker threshold 5) — a cluster
	// client without retries cannot fail over transparently, so unlike
	// orb.ClientConfig the zero value opts IN to supervision.
	Resilience *orb.ResilienceConfig
	// RefreshInterval re-resolves the group periodically and retargets the
	// client to it, healing re-added and skipped members without waiting
	// for a dial failure. Zero disables the refresher (failover
	// still works through the dial-failure Resolve path).
	RefreshInterval time.Duration
}

// Client is an orb.Client bound to a replica group instead of one server:
// membership comes from a Directory, the client holds one connection per
// member, a dead member's invocations fail over through re-resolution, and
// the optional refresher heals re-added members back into rotation. All orb.Client
// methods (Invoke, InvokeIdempotent, ...) are promoted unchanged.
type Client struct {
	*orb.Client
	network   transport.Network
	directory string
	group     string

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// Dial resolves the group at the directory and connects a replica-aware
// client to the members.
func Dial(cfg ClientConfig) (*Client, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("cluster: config needs a Network")
	}
	if cfg.Directory == "" || cfg.Group == "" {
		return nil, fmt.Errorf("cluster: config needs a Directory address and a Group key")
	}
	members, err := Resolve(cfg.Network, cfg.Directory, cfg.Group)
	if err != nil {
		return nil, err
	}
	res := cfg.Resilience
	if res == nil {
		res = &orb.ResilienceConfig{}
	}
	ocl, err := orb.DialClient(orb.ClientConfig{
		Network: cfg.Network,
		Addrs:   members,
		Resolve: func() ([]string, error) {
			return Resolve(cfg.Network, cfg.Directory, cfg.Group)
		},
		Resilience: res,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: dial group %q: %w", cfg.Group, err)
	}
	c := &Client{
		Client:    ocl,
		network:   cfg.Network,
		directory: cfg.Directory,
		group:     cfg.Group,
		stop:      make(chan struct{}),
	}
	if cfg.RefreshInterval > 0 {
		c.wg.Add(1)
		go c.refresher(cfg.RefreshInterval)
	}
	return c, nil
}

// refresher periodically re-resolves the group and retargets the client to
// it; orb.Client.Retarget stores nothing while the membership stands, and
// un-skips a member it names. This is the heal-forward path: a member
// re-added to the directory, or one skipped after a refused dial, takes
// invocations again within one interval, without waiting for a survivor to
// die first.
func (c *Client) refresher(every time.Duration) {
	defer c.wg.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			members, err := Resolve(c.network, c.directory, c.group)
			if err != nil || len(members) == 0 {
				continue // transient: keep the current membership
			}
			c.Retarget(members)
		}
	}
}

// Refresh re-resolves the group once and retargets immediately — the manual
// counterpart of the refresher tick, for tests and operator tooling.
func (c *Client) Refresh() error {
	members, err := Resolve(c.network, c.directory, c.group)
	if err != nil {
		return err
	}
	c.Retarget(members)
	return nil
}

// Close stops the refresher and closes the underlying client.
func (c *Client) Close() {
	c.once.Do(func() { close(c.stop) })
	c.wg.Wait()
	c.Client.Close()
}
