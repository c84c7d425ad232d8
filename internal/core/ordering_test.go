package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sched"
)

type testMsg struct{ v int }

func (m *testMsg) Reset() { m.v = 0 }

// TestInPortConcurrentProducersFIFO has several producers race pushes while
// one consumer drains, and checks each producer's per-priority stream pops
// in its push order. Run with -race.
func TestInPortConcurrentProducersFIFO(t *testing.T) {
	const (
		seed      = 7
		producers = 5
		perProd   = 200
	)
	p := newTestPort(producers*perProd, OverflowReject)

	type tag struct{ prod, seq, prio int }
	var pushWG sync.WaitGroup
	pushWG.Add(producers)
	for pr := 0; pr < producers; pr++ {
		go func(prod int) {
			defer pushWG.Done()
			rng := rand.New(rand.NewSource(seed + int64(prod)))
			for i := 0; i < perProd; i++ {
				prio := sched.MinPriority + sched.Priority(rng.Intn(5))
				msg := &testMsg{v: prod*1_000_000 + i}
				if err := p.push(bufItem{msg: msg, prio: prio}); err != nil {
					t.Error(err)
					return
				}
			}
		}(pr)
	}

	var popped []tag
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(popped) < producers*perProd {
			it, ok := p.pop()
			if !ok {
				continue
			}
			v := it.msg.(*testMsg).v
			popped = append(popped, tag{prod: v / 1_000_000, seq: v % 1_000_000, prio: int(it.prio)})
		}
	}()
	pushWG.Wait()
	<-done

	lastSeq := make(map[[2]int]int)
	for _, tg := range popped {
		k := [2]int{tg.prod, tg.prio}
		if prev, ok := lastSeq[k]; ok && tg.seq < prev {
			t.Fatalf("producer %d priority %d: seq %d popped after %d; not FIFO within priority",
				tg.prod, tg.prio, tg.seq, prev)
		}
		lastSeq[k] = tg.seq
	}

	if r, pr, d := p.received.Load(), p.processed.Load(), p.dropped.Load(); r != producers*perProd || pr != 0 || d != 0 {
		t.Fatalf("stats = (%d, %d, %d), want (%d, 0, 0)", r, pr, d, producers*perProd)
	}
}

// TestDestsSharedSlice checks the Dests satellite contract: repeated calls
// return the same immutable backing slice with no per-call copy, replaced
// only by re-registration.
func TestDestsSharedSlice(t *testing.T) {
	app, err := NewApp(AppConfig{Name: "dests", ImmortalSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()

	var out *OutPort
	comp, err := app.NewImmortalComponent("C", func(c *Component) error {
		var err error
		out, err = AddOutPort(c, c.SMM(), OutPortConfig{
			Name: "o", Type: MessageType{Name: "t", Size: 8, New: func() Message { return &testMsg{} }},
			Dests: []string{"C.a", "C.b"},
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	d1, d2 := out.Dests(), out.Dests()
	if len(d1) != 2 || d1[0] != "C.a" || d1[1] != "C.b" {
		t.Fatalf("Dests = %v", d1)
	}
	if &d1[0] != &d2[0] {
		t.Error("Dests copies per call; want the shared immutable slice")
	}

	// Re-registration replaces the list and the old slice stays intact.
	if _, err := AddOutPort(comp, comp.SMM(), OutPortConfig{
		Name: "o", Type: MessageType{Name: "t", Size: 8, New: func() Message { return &testMsg{} }},
		Dests: []string{"C.x"},
	}); err != nil {
		t.Fatal(err)
	}
	d3 := out.Dests()
	if len(d3) != 1 || d3[0] != "C.x" {
		t.Fatalf("Dests after re-register = %v", d3)
	}
	if d1[0] != "C.a" {
		t.Error("old Dests slice mutated by re-registration")
	}
}

// TestRouteCacheInvalidation checks the tentpole's route cache: sends work
// before the destination port exists only via the slow path, and a
// registration after the cache was built is picked up (generation bump).
func TestRouteCacheInvalidation(t *testing.T) {
	app, err := NewApp(AppConfig{Name: "routes", ImmortalSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()

	typ := MessageType{Name: "t", Size: 8, New: func() Message { return &testMsg{} }}
	var mu sync.Mutex
	var seen []int

	comp, err := app.NewImmortalComponent("C", func(c *Component) error {
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	smm := comp.SMM()
	out, err := AddOutPort(comp, smm, OutPortConfig{Name: "o", Type: typ, Dests: []string{"C.in"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}

	// No In port registered yet: the cached route has in == nil and the
	// slow path reports the unknown port.
	msg, err := out.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Send(msg, sched.NormPriority); err == nil {
		t.Fatal("send before In-port registration succeeded")
	}

	// Register the In port; the generation bump must invalidate the cached
	// route set so the next send resolves it.
	if _, err := AddInPort(comp, smm, InPortConfig{
		Name: "in", Type: typ, Threading: ThreadingSynchronous,
		Handler: HandlerFunc(func(p *Proc, m Message) error {
			mu.Lock()
			seen = append(seen, m.(*testMsg).v)
			mu.Unlock()
			return nil
		}),
	}); err != nil {
		t.Fatal(err)
	}
	msg, err = out.GetMessage()
	if err != nil {
		t.Fatal(err)
	}
	msg.(*testMsg).v = 11
	if err := out.Send(msg, sched.NormPriority); err != nil {
		t.Fatalf("send after registration: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0] != 11 {
		t.Fatalf("seen = %v, want [11]", seen)
	}
}
