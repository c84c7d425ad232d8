// Clientserver reproduces the paper's §3.1 overhead example (Figs. 6–8): an
// immortal component (IMC) creates a Client and a Server in sibling scoped
// memory regions; a trigger on P1 makes the Client send a request through
// P3 to the Server's P4, whose reply returns through P5 to the Client's P6.
// The example then reports the measured round-trip median and jitter, the
// numbers behind Table 2.
//
//	go run ./examples/clientserver
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/metrics"
)

// MyInteger is the message type of the paper's listings.
type MyInteger struct {
	Value int64
}

// Reset implements core.Message.
func (m *MyInteger) Reset() { m.Value = 0 }

var myIntegerType = core.MessageType{
	Name: "MyInteger",
	Size: 32,
	New:  func() core.Message { return &MyInteger{} },
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// RTSJAttributes: immortal budget plus a pool of level-1 scopes so the
	// Client and Server regions are recycled rather than re-created.
	app, err := core.NewApp(core.AppConfig{
		Name:         "clientserver",
		ImmortalSize: 400000,
		ScopePools:   []core.ScopePoolSpec{{Level: 1, AreaSize: 200000, Count: 3}},
	})
	if err != nil {
		return err
	}
	defer app.Stop()

	reply := make(chan int64, 1)

	imc, err := app.NewImmortalComponent("IMC", func(c *core.Component) error {
		smm := c.SMM()

		// addOutPort("P1", smm, MyInteger, "MyClient_P2")
		if _, err := core.AddOutPort(c, smm, core.OutPortConfig{
			Name: "P1", Type: myIntegerType, Dests: []string{"Client.P2"},
		}); err != nil {
			return err
		}

		clientDef := core.ChildDef{
			Name: "Client", UsePool: true, Persistent: true,
			Setup: func(cl *core.Component) error {
				// P2_MessageHandler: forward the trigger as a request.
				if _, err := core.AddInPort(cl, smm, core.InPortConfig{
					Name: "P2", Type: myIntegerType, BufferSize: 10,
					MinThreads: 1, MaxThreads: 5,
					Handler: core.HandlerFunc(func(p *core.Proc, m core.Message) error {
						p3, err := p.SMM().GetOutPort("Client.P3")
						if err != nil {
							return err
						}
						req, err := p3.GetMessage()
						if err != nil {
							return err
						}
						req.(*MyInteger).Value = 3
						return p3.SendFrom(p, req, 3)
					}),
				}); err != nil {
					return err
				}
				if _, err := core.AddOutPort(cl, smm, core.OutPortConfig{
					Name: "P3", Type: myIntegerType, Dests: []string{"Server.P4"},
				}); err != nil {
					return err
				}
				// P6_MessageHandler: the reply arrives; take the timestamp.
				_, err := core.AddInPort(cl, smm, core.InPortConfig{
					Name: "P6", Type: myIntegerType, BufferSize: 20,
					MinThreads: 1, MaxThreads: 5,
					Handler: core.HandlerFunc(func(p *core.Proc, m core.Message) error {
						reply <- m.(*MyInteger).Value
						return nil
					}),
				})
				return err
			},
		}
		serverDef := core.ChildDef{
			Name: "Server", UsePool: true, Persistent: true,
			Setup: func(sv *core.Component) error {
				// P4_MessageHandler: answer the request.
				if _, err := core.AddInPort(sv, smm, core.InPortConfig{
					Name: "P4", Type: myIntegerType, BufferSize: 20,
					MinThreads: 1, MaxThreads: 5,
					Handler: core.HandlerFunc(func(p *core.Proc, m core.Message) error {
						p5, err := p.SMM().GetOutPort("Server.P5")
						if err != nil {
							return err
						}
						rep, err := p5.GetMessage()
						if err != nil {
							return err
						}
						rep.(*MyInteger).Value = 4
						return p5.SendFrom(p, rep, 3)
					}),
				}); err != nil {
					return err
				}
				_, err := core.AddOutPort(sv, smm, core.OutPortConfig{
					Name: "P5", Type: myIntegerType, Dests: []string{"Client.P6"},
				})
				return err
			},
		}
		if err := c.DefineChild(clientDef); err != nil {
			return err
		}
		return c.DefineChild(serverDef)
	})
	if err != nil {
		return err
	}
	if err := app.Start(); err != nil {
		return err
	}

	p1, err := imc.SMM().GetOutPort("IMC.P1")
	if err != nil {
		return err
	}
	roundTrip := func() error {
		m, err := p1.GetMessage()
		if err != nil {
			return err
		}
		// "Send trigger msg with priority 2".
		if err := p1.Send(m, 2); err != nil {
			return err
		}
		if v := <-reply; v != 4 {
			return fmt.Errorf("reply = %d, want 4", v)
		}
		return nil
	}

	summary, err := metrics.RunSteadyState(200, 2000, roundTrip)
	if err != nil {
		return err
	}
	fmt.Println("co-located client-server round trip:", summary)
	fmt.Printf("scope pool: ")
	created, reused, free := app.ScopePool(1).Stats()
	fmt.Printf("%d areas created, %d acquisitions served from the pool, %d free\n", created, reused, free)
	return nil
}
