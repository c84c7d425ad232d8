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
	rank := int64(q * float64(total-1))
	var seen int64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen > rank {
			return bucketLow(i + 1)
		}
	}
	return h.max.Load()
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
