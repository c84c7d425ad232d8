package core

import (
	"testing"

	"repro/internal/sched"
)

// portPushPop returns one steady-state buffer cycle — push a message, pop
// one — for each way a port can be keyed. The contested variant keeps a
// standing backlog of four tenant classes in the band, so every pop is a DRR
// turn; the other two pop straight from the band's one occupied class.
func portPushPop(variant string) func() {
	keyed := variant != "unkeyed"
	p := newTestPort(8, OverflowReject, keyed)
	var msgs [4]*classedMsg
	for c := range msgs {
		msgs[c] = &classedMsg{class: uint8(c)}
	}
	push := func(c int) {
		if _, _, err := p.push(bufItem{msg: msgs[c], prio: sched.NormPriority}); err != nil {
			panic(err)
		}
	}
	if variant != "keyed_contested" {
		return func() { push(0); p.pop() }
	}
	for c := range msgs {
		push(c)
	}
	next := 0
	return func() { push(next); next = (next + 1) % len(msgs); p.pop() }
}

var portPushPopVariants = []string{"unkeyed", "keyed_one_class", "keyed_contested"}

func BenchmarkInPortPushPop(b *testing.B) {
	for _, v := range portPushPopVariants {
		b.Run(v, func(b *testing.B) {
			cycle := portPushPop(v)
			cycle() // the band is allocated the first time its priority is used
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}

// TestInPortPushPopAllocFree pins the port buffer at zero allocations per
// message once the priority level it carries has been used.
func TestInPortPushPopAllocFree(t *testing.T) {
	for _, v := range portPushPopVariants {
		cycle := portPushPop(v)
		cycle()
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("%s: push+pop allocates %.1f objects/op, want 0", v, allocs)
		}
	}
}
