package telemetry

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The window's p99 is the covering rank's bucket edge: with 100 samples the
// one slow outlier is the p99, reported within one 1/16-octave bucket above
// it, and a Swap leaves the half it froze empty.
func TestWindowP99(t *testing.T) {
	var w Window
	for i := 0; i < 99; i++ {
		w.Record(int64(time.Millisecond))
	}
	w.Record(int64(100 * time.Millisecond))
	p99, n := w.Swap()
	if n != 100 {
		t.Fatalf("samples = %d, want 100", n)
	}
	if p99 <= int64(100*time.Millisecond) || p99 > int64(100*time.Millisecond)*17/16 {
		t.Errorf("p99 = %v, want within a bucket above 100ms", time.Duration(p99))
	}
	if p99, n := w.Swap(); n != 0 || p99 != 0 {
		t.Errorf("second swap = (%d, %d), want an empty window", p99, n)
	}
	// The half frozen first is active again and was zeroed.
	w.Record(int64(time.Millisecond))
	if p99, n := w.Swap(); n != 1 || p99 != bucketLow(bucketIndex(int64(time.Millisecond))+1) {
		t.Errorf("third swap = (%d, %d), want one sample at 1ms's bucket edge", p99, n)
	}
}

// Records race Swaps from another goroutine: every record is counted by
// exactly one Swap, none lost to a zeroing and none counted twice. Run with
// -race.
func TestWindowSwapStorm(t *testing.T) {
	var w Window
	const recorders, per = 8, 20_000
	var swapped atomic.Int64
	stop := make(chan struct{})
	swapperDone := make(chan struct{})
	go func() {
		defer close(swapperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, n := w.Swap()
			swapped.Add(n)
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < recorders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w.Record(int64(r*per + i))
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	<-swapperDone
	// A record that loaded the active half just before a Swap flipped it
	// lands in the frozen half after it was read: the next two Swaps, one
	// per half, collect whatever is left.
	for i := 0; i < 2; i++ {
		_, n := w.Swap()
		swapped.Add(n)
	}
	if got := swapped.Load(); got != recorders*per {
		t.Errorf("swaps counted %d records, want %d", got, recorders*per)
	}
}
