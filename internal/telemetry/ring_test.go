package telemetry

import (
	"sync"
	"testing"
)

func TestRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 16}, {1, 16}, {16, 16}, {17, 32}, {100, 128}, {4096, 4096},
	} {
		if got := len(NewRing(tc.in).slots); got != tc.want {
			t.Errorf("NewRing(%d) has %d slots, want %d", tc.in, got, tc.want)
		}
	}
}

func TestRingRecordSnapshot(t *testing.T) {
	r := NewRing(16)
	lbl := Label("ring.test")
	r.Record(EvSend, lbl, 1, 2, 3)
	r.Record(EvDispatch, lbl, 1, 4, 5)

	events := r.Snapshot()
	if len(events) != 2 {
		t.Fatalf("snapshot len = %d, want 2", len(events))
	}
	if events[0].Kind != EvSend || events[0].Trace != 1 || events[0].Span != 2 || events[0].Arg != 3 {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[0].Label != "ring.test" || events[0].KindName != "send" {
		t.Errorf("event 0 label/kind = %q %q", events[0].Label, events[0].KindName)
	}
	if events[1].Seq != events[0].Seq+1 {
		t.Errorf("seqs = %d, %d", events[0].Seq, events[1].Seq)
	}
	if events[1].When < events[0].When {
		t.Errorf("timestamps out of order: %d then %d", events[0].When, events[1].When)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 40; i++ {
		r.Record(EvSend, 0, 0, 0, uint64(i))
	}
	events := r.Snapshot()
	if len(events) != 16 {
		t.Fatalf("snapshot len = %d, want 16", len(events))
	}
	for i, ev := range events {
		if want := uint64(24 + i); ev.Arg != want {
			t.Errorf("event %d arg = %d, want %d", i, ev.Arg, want)
		}
	}
	if r.Len() != 40 {
		t.Errorf("Len = %d, want 40", r.Len())
	}
}

func TestRingConcurrentRecordAndSnapshot(t *testing.T) {
	r := NewRing(64)
	lbl := Label("ring.race")
	const writers, per = 4, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent reader: snapshots must never report torn slots
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range r.Snapshot() {
				// Writers stamp trace, span, and arg with one writer-local
				// value, so a slot mixing fields from two in-flight writers
				// is detectable.
				if ev.Kind != EvSend || ev.Trace != ev.Span || ev.Trace != ev.Arg {
					t.Errorf("torn event: %+v", ev)
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := uint64(w*per + i + 1)
				r.Record(EvSend, lbl, v, v, v)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if r.Len() != writers*per {
		t.Errorf("Len = %d, want %d", r.Len(), writers*per)
	}
}

func TestRingRecordNoAlloc(t *testing.T) {
	r := NewRing(64)
	lbl := Label("ring.alloc")
	allocs := testing.AllocsPerRun(1000, func() { r.Record(EvSend, lbl, 1, 2, 3) })
	if allocs != 0 {
		t.Errorf("Ring.Record allocates %.1f/op, want 0", allocs)
	}
}

func TestRingTraceEvents(t *testing.T) {
	r := NewRing(32)
	lbl := Label("ring.trace")
	r.Record(EvSpanStart, lbl, 100, 1, 0)
	r.Record(EvSend, lbl, 200, 2, 0)
	r.Record(EvSpanEnd, lbl, 100, 1, 555)

	got := r.TraceEvents(100)
	if len(got) != 2 {
		t.Fatalf("trace events = %d, want 2", len(got))
	}
	if got[0].Kind != EvSpanStart || got[1].Kind != EvSpanEnd || got[1].Arg != 555 {
		t.Errorf("trace events = %+v", got)
	}
}
