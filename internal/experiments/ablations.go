package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// AblationRow is one variant of an ablation experiment.
type AblationRow struct {
	Variant string
	Summary metrics.Summary
}

// RunAblationCrossScope compares the three cross-scope message passing
// mechanisms of §2.2 on the Fig. 6 round trip. The paper argues the shared
// object is the most efficient, serialization pays per-copy encoding, and
// handoff avoids copies but couples the sender to the scope structure.
func RunAblationCrossScope(warmup, observations int) ([]AblationRow, error) {
	return runAblation([]ablation{
		{"shared-object", pingPong(PingPongConfig{Synchronous: true, Persistent: true, Mechanism: core.MechanismSharedObject})},
		{"serialization", pingPong(PingPongConfig{Synchronous: true, Persistent: true, Mechanism: core.MechanismSerialization})},
		{"handoff", pingPong(PingPongConfig{Synchronous: true, Persistent: true, Mechanism: core.MechanismHandoff})},
	}, warmup, observations)
}

// RunAblationScopePool compares transient component instantiation with and
// without the scope-pool optimisation (CCL <ScopedPool>): with Persistent
// off, every round trip re-creates Client and Server, each in a fresh area
// that commits its first segment, unless the pool recycles areas that keep
// theirs.
func RunAblationScopePool(warmup, observations int) ([]AblationRow, error) {
	return runAblation([]ablation{
		{"fresh-scopes", pingPong(PingPongConfig{Synchronous: true, Persistent: false, UseScopePool: false})},
		{"scope-pool", pingPong(PingPongConfig{Synchronous: true, Persistent: false, UseScopePool: true})},
	}, warmup, observations)
}

// RunAblationDispatch compares the CCL threading policies on the Fig. 6
// round trip: synchronous execution on the sending thread (pool size 0 in
// the paper's terms) against thread-pool dispatch. Pools buy concurrency
// and isolation at the price of per-hop wake-up latency.
func RunAblationDispatch(warmup, observations int) ([]AblationRow, error) {
	return runAblation([]ablation{
		{"synchronous", pingPong(PingPongConfig{Synchronous: true, Persistent: true})},
		{"thread-pool", pingPong(PingPongConfig{Synchronous: false, Persistent: true})},
	}, warmup, observations)
}

// roundTripper is the system an ablation variant times.
type roundTripper interface {
	RoundTrip(v int64) (int64, error)
	Close()
}

// ablation is one variant: its row's name and how to build what it times.
type ablation struct {
	name string
	open func() (roundTripper, error)
}

// pingPong builds the Fig. 6 round trip under cfg.
func pingPong(cfg PingPongConfig) func() (roundTripper, error) {
	return func() (roundTripper, error) { return NewPingPong(cfg) }
}

// runAblation times each variant's round trip at steady state, with the
// collector held off. The variants are open side by side and take turns,
// one observation each, so a slow spell of the host falls on all of them
// alike rather than on whichever was running through it: the ablations
// compare medians a few microseconds apart.
func runAblation(variants []ablation, warmup, observations int) ([]AblationRow, error) {
	rts := make([]roundTripper, 0, len(variants))
	defer func() {
		for _, rt := range rts {
			rt.Close()
		}
	}()
	for _, v := range variants {
		rt, err := v.open()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		rts = append(rts, rt)
	}
	samples := make([][]time.Duration, len(rts))
	for j := range samples {
		samples[j] = make([]time.Duration, 0, observations)
	}
	defer quiesceGC()()
	for i := 0; i < warmup+observations; i++ {
		for j, rt := range rts {
			start := time.Now()
			if _, err := rt.RoundTrip(int64(i + 1)); err != nil {
				return nil, fmt.Errorf("%s: %w", variants[j].name, err)
			}
			if i >= warmup {
				samples[j] = append(samples[j], time.Since(start))
			}
		}
	}
	rows := make([]AblationRow, len(variants))
	for j, v := range variants {
		rows[j] = AblationRow{Variant: v.name, Summary: metrics.Summarize(samples[j])}
	}
	return rows, nil
}

// shadowApp is the three-level structure of Fig. 5: A contains B contains
// C. A message travels A → B → C, and C answers A either directly through a
// shadow port (pool and buffer only in A) or by relaying through its parent
// B (an extra copy through B's traffic).
type shadowApp struct {
	app  *core.App
	out  *core.OutPort
	done chan int64
}

func newShadowApp(shadow bool) (*shadowApp, error) {
	app, err := core.NewApp(core.AppConfig{Name: "Shadow", ImmortalSize: 1 << 20})
	if err != nil {
		return nil, err
	}
	sa := &shadowApp{app: app, done: make(chan int64, 1)}

	sync := func(name string, h core.Handler) core.InPortConfig {
		return core.InPortConfig{
			Name: name, Type: pingType, Threading: core.ThreadingSynchronous, Handler: h,
		}
	}

	_, err = app.NewImmortalComponent("A", func(a *core.Component) error {
		aSMM := a.SMM()
		if _, err := core.AddInPort(a, aSMM, sync("fromC", core.HandlerFunc(
			func(p *core.Proc, m core.Message) error {
				sa.done <- m.(*pingMsg).value
				return nil
			}))); err != nil {
			return err
		}
		out, err := core.AddOutPort(a, aSMM, core.OutPortConfig{
			Name: "down", Type: pingType, Dests: []string{"B.in"},
		})
		if err != nil {
			return err
		}
		sa.out = out

		return a.DefineChild(core.ChildDef{
			// B's SMM hosts the message pool for the B->C leg (and the
			// relay leg in the non-shadow variant), so its area must fit
			// pool capacity x message size.
			Name: "B", MemorySize: 1 << 18, Persistent: true,
			Setup: func(b *core.Component) error {
				bSMM := b.SMM()
				// B forwards A's trigger down to C.
				if _, err := core.AddInPort(b, aSMM, sync("in", core.HandlerFunc(
					func(p *core.Proc, m core.Message) error {
						toC, err := bSMM.GetOutPort("B.toC")
						if err != nil {
							return err
						}
						fwd, err := toC.GetMessage()
						if err != nil {
							return err
						}
						fwd.(*pingMsg).value = m.(*pingMsg).value
						return toC.SendFrom(p, fwd, p.Priority())
					}))); err != nil {
					return err
				}
				if _, err := core.AddOutPort(b, bSMM, core.OutPortConfig{
					Name: "toC", Type: pingType, Dests: []string{"C.in"},
				}); err != nil {
					return err
				}

				if !shadow {
					// Relay variant: B carries C's answer up to A, costing
					// an extra pooled copy and an extra dispatch.
					if _, err := core.AddInPort(b, bSMM, sync("fromC", core.HandlerFunc(
						func(p *core.Proc, m core.Message) error {
							up, err := aSMM.GetOutPort("B.up")
							if err != nil {
								return err
							}
							fwd, err := up.GetMessage()
							if err != nil {
								return err
							}
							fwd.(*pingMsg).value = m.(*pingMsg).value
							return up.SendFrom(p, fwd, p.Priority())
						}))); err != nil {
						return err
					}
					if _, err := core.AddOutPort(b, aSMM, core.OutPortConfig{
						Name: "up", Type: pingType, Dests: []string{"A.fromC"},
					}); err != nil {
						return err
					}
				}

				return b.DefineChild(core.ChildDef{
					Name: "C", MemorySize: 1 << 14, Persistent: true,
					Setup: func(cc *core.Component) error {
						handler := func(p *core.Proc, m core.Message) error {
							var out *core.OutPort
							var err error
							if shadow {
								out, err = aSMM.GetOutPort("C.sh")
							} else {
								out, err = bSMM.GetOutPort("C.up")
							}
							if err != nil {
								return err
							}
							fwd, err := out.GetMessage()
							if err != nil {
								return err
							}
							fwd.(*pingMsg).value = m.(*pingMsg).value + 1
							return out.SendFrom(p, fwd, p.Priority())
						}
						if _, err := core.AddInPort(cc, bSMM, sync("in", core.HandlerFunc(handler))); err != nil {
							return err
						}
						if shadow {
							// Shadow port: registered directly with the
							// grandparent's SMM (Fig. 5).
							_, err := core.AddOutPort(cc, aSMM, core.OutPortConfig{
								Name: "sh", Type: pingType, Dests: []string{"A.fromC"},
							})
							return err
						}
						_, err := core.AddOutPort(cc, bSMM, core.OutPortConfig{
							Name: "up", Type: pingType, Dests: []string{"B.fromC"},
						})
						return err
					},
				})
			},
		})
	})
	if err != nil {
		app.Stop()
		return nil, err
	}
	if err := app.Start(); err != nil {
		app.Stop()
		return nil, err
	}
	return sa, nil
}

func (sa *shadowApp) RoundTrip(v int64) (int64, error) {
	msg, err := sa.out.GetMessage()
	if err != nil {
		return 0, err
	}
	msg.(*pingMsg).value = v
	if err := sa.out.Send(msg, 3); err != nil {
		return 0, err
	}
	select {
	case got := <-sa.done:
		return got, nil
	case <-time.After(10 * time.Second):
		return 0, fmt.Errorf("shadow app round trip timed out")
	}
}

func (sa *shadowApp) Close() { sa.app.Stop() }

// RunAblationShadowPort compares the shadow-port path (grandchild →
// grandparent directly) against relaying through the parent, per Fig. 5 of
// the paper.
func RunAblationShadowPort(warmup, observations int) ([]AblationRow, error) {
	return runAblation([]ablation{
		{"parent-relay", func() (roundTripper, error) { return newShadowApp(false) }},
		{"shadow-port", func() (roundTripper, error) { return newShadowApp(true) }},
	}, warmup, observations)
}
