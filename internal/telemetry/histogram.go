package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Log-linear histogram layout. Values (nanoseconds) are bucketed with
// histSubCount linear buckets per power-of-two range, giving a worst-case
// relative error of 1/(histSubCount/2) ≈ 6% — plenty for latency
// distributions — with a fixed, lock-free array of atomic counters.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits // linear buckets in the first range
	histHalf     = histSubCount / 2 // buckets added per doubling
	// Values are non-negative int64s, so the highest set bit is 62; every
	// reachable index fits below histBuckets exactly.
	histBuckets = histSubCount + (63-histSubBits)*histHalf
)

// Histogram is a lock-free log-linear histogram of int64 observations
// (conventionally nanoseconds). Record is wait-free: one atomic add into a
// fixed bucket array plus count/sum/max maintenance. The zero value is not
// registered; obtain instances from a Registry so exporters see them.
type Histogram struct {
	name    string
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSubCount {
		return int(u)
	}
	msb := bits.Len64(u) - 1             // position of the highest set bit
	exp := uint(msb - (histSubBits - 1)) // doublings beyond the linear range
	mantissa := u >> exp                 // top histSubBits bits ∈ [histHalf, histSubCount)
	return histSubCount + int(exp-1)*histHalf + int(mantissa) - histHalf
}

// bucketLow returns the smallest value that maps to bucket i, saturating at
// MaxInt64 for the (unreachable) bucket just past the last.
func bucketLow(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	j := i - histSubCount
	exp := uint(j/histHalf) + 1
	mantissa := uint64(j%histHalf) + histHalf
	v := mantissa << exp
	if v > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(v)
}

// Record adds one observation. Negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observation.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns an upper bound on the q-th quantile (0 ≤ q ≤ 1) from the
// bucket counts: the low edge of the bucket after the one holding the
// quantile rank, i.e. accurate to the bucket's ≈6% width. Returns 0 on an
// empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if v, ok := rankEdge(func(i int) int64 { return h.buckets[i].Load() }, int64(q*float64(total-1))); ok {
		return v
	}
	return h.max.Load()
}

// rankEdge scans the cumulative bucket counts count(0), count(1), … for the
// bucket holding the observation of 0-based rank r and returns its upper
// edge, the low edge of the bucket after it; ok is false when the counts hold
// r or fewer observations.
func rankEdge(count func(i int) int64, r int64) (edge int64, ok bool) {
	var seen int64
	for i := 0; i < histBuckets; i++ {
		if seen += count(i); seen > r {
			return bucketLow(i + 1), true
		}
	}
	return 0, false
}

// Window is a two-phase histogram over the same layout, for a control loop
// that reads one window at a time: Record adds to the active half, and Swap
// freezes it and makes the other half active. A record racing a Swap may land
// in either half; it is counted by exactly one Swap, at worst one window
// late. The zero value is ready to use; it is not registered anywhere.
type Window struct {
	active  atomic.Uint32
	buckets [2][histBuckets]atomic.Int64
}

// Record adds one observation to the active half: one atomic add. Negative
// values count as zero.
func (w *Window) Record(v int64) {
	w.buckets[w.active.Load()&1][bucketIndex(v)].Add(1)
}

// Swap makes the other half active, zeroes the frozen one and returns its
// observation count n and its p99 at the covering rank: the upper edge of
// the bucket holding the (n*99/100+1)-th smallest observation, so with 100
// observations one slow outlier is the p99 — for a control signal the tail
// must register. An empty window returns zeros.
func (w *Window) Swap() (p99, n int64) {
	old := w.active.Load() & 1
	w.active.Store(1 - old)
	var counts [histBuckets]int64
	for i := range w.buckets[old] {
		// Most buckets are empty: a load is cheaper than a swap to zero.
		if b := &w.buckets[old][i]; b.Load() != 0 {
			counts[i] = b.Swap(0)
			n += counts[i]
		}
	}
	if n == 0 {
		return 0, 0
	}
	p99, _ = rankEdge(func(i int) int64 { return counts[i] }, n*99/100)
	return p99, n
}

// HistogramSnapshot is an exportable view of a histogram.
type HistogramSnapshot struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	Sum   int64  `json:"sum"`
	Max   int64  `json:"max"`
	P50   int64  `json:"p50"`
	P90   int64  `json:"p90"`
	P99   int64  `json:"p99"`
}

// Snapshot captures the histogram's current state: its count, sum, maximum
// and percentile summaries.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Name:  h.name,
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}
