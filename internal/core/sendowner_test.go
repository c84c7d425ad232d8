package core

import (
	"errors"
	"sync/atomic"
	"testing"
)

// ownedMsg counts its Resets: one per trip back into the pool.
type ownedMsg struct{ resets *atomic.Int64 }

func (m *ownedMsg) Reset() { m.resets.Add(1) }

// TestSendConsumesMessageOnEveryError pins the ownership rule of
// OutPort.Send: the message is the framework's from the call on, so a send
// that fails — before any receiver was tried, or at a receiver — has put it
// back (Reset ran, nothing in flight) and the caller has nothing to return.
func TestSendConsumesMessageOnEveryError(t *testing.T) {
	rows := []struct {
		name  string
		dests []string
		prep  func(app *App, smm *SMM)
		want  error
	}{
		{"stopped", []string{"C.in"}, func(app *App, _ *SMM) { app.Stop() }, ErrStopped},
		{"no destinations", nil, nil, ErrUnknownPort},
		{"handoff without a caller context", []string{"C.in"}, func(_ *App, smm *SMM) { smm.SetMechanism(MechanismHandoff) }, ErrNeedsCallerContext},
		{"unknown mechanism", []string{"C.in"}, func(_ *App, smm *SMM) { smm.SetMechanism(Mechanism(99)) }, nil},
		{"serialization of a plain message", []string{"C.in"}, func(_ *App, smm *SMM) { smm.SetMechanism(MechanismSerialization) }, ErrNotSerializable},
		{"receiver: unknown port", []string{"C.missing"}, nil, ErrUnknownPort},
		{"receiver: type mismatch", []string{"C.strIn"}, nil, ErrTypeMismatch},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var resets atomic.Int64
			typ := MessageType{Name: "Owned", Size: 16, New: func() Message { return &ownedMsg{resets: &resets} }}
			app := newTestApp(t, AppConfig{})
			comp, err := app.NewImmortalComponent("C", func(c *Component) error {
				h := HandlerFunc(func(*Proc, Message) error { return nil })
				if _, err := AddInPort(c, c.SMM(), InPortConfig{Name: "in", Type: typ, Threading: ThreadingSynchronous, Handler: h}); err != nil {
					return err
				}
				if _, err := AddInPort(c, c.SMM(), InPortConfig{Name: "strIn", Type: stringType, Handler: h}); err != nil {
					return err
				}
				_, err := AddOutPort(c, c.SMM(), OutPortConfig{Name: "out", Type: typ, Dests: row.dests})
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := app.Start(); err != nil {
				t.Fatal(err)
			}
			smm := comp.SMM()
			out, _ := smm.GetOutPort("out")
			msg, err := out.GetMessage()
			if err != nil {
				t.Fatal(err)
			}
			if row.prep != nil {
				row.prep(app, smm)
			}
			err = out.Send(msg, 1)
			if err == nil || (row.want != nil && !errors.Is(err, row.want)) {
				t.Fatalf("Send err = %v, want %v", err, row.want)
			}
			if got := resets.Load(); got != 1 {
				t.Errorf("message Reset %d times, want once", got)
			}
			if _, inFlight := msgPoolStats(smm, "Owned"); inFlight != 0 {
				t.Errorf("pool after failed send: %d in flight", inFlight)
			}
		})
	}
}
