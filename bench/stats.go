package main

import (
	"encoding/json"
	"math"
	"sort"
)

// num is a float64 that survives JSON when it has no value: NaN and ±Inf
// are written as null and null reads back as NaN.
type num float64

func (n num) MarshalJSON() ([]byte, error) {
	f := float64(n)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(f)
}

func (n *num) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*n = num(math.NaN())
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*n = num(f)
	return nil
}

// tailSamples is how many samples must lie beyond a reported percentile
// (choosing-metrics §1: "the highest percentile that has at least ten
// samples beyond it").
const tailSamples = 10

// probeBatch is how many operations a probe times per clock-read pair. (The
// workloads' callers batch too: workload.batch.)
const probeBatch = 64

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted, or
// NaN when sorted is empty. sorted must be ascending.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// supportedTail returns the highest of the candidate quantiles
// {0.99, 0.95, 0.90, 0.75, 0.50} that still has at least tailSamples samples
// beyond it in a sample of n, and how many samples lie beyond it. With fewer
// than 2×tailSamples samples only the median is supported.
func supportedTail(n int) (q float64, beyond int) {
	for _, q := range []float64{0.99, 0.95, 0.90, 0.75} {
		rank := int(math.Ceil(q * float64(n)))
		if b := n - rank; b >= tailSamples {
			return q, b
		}
	}
	return 0.50, n - int(math.Ceil(0.5*float64(n)))
}

// summary describes one repetition's latency sample.
type summary struct {
	N      int     `json:"n"`
	P50    num     `json:"p50"`
	Tail   num     `json:"tail"`
	TailQ  float64 `json:"tail_q"`
	Beyond int     `json:"beyond"`
}

// summarize sorts samples in place and reports the median and the highest
// supported tail percentile. An empty sample (every operation failed)
// yields NaNs with N = 0.
func summarize(samples []float64) summary {
	sort.Float64s(samples)
	q, beyond := supportedTail(len(samples))
	return summary{
		N:      len(samples),
		P50:    num(percentile(samples, 0.5)),
		Tail:   num(percentile(samples, q)),
		TailQ:  q,
		Beyond: beyond,
	}
}

// quartiles is the median and the first and third quartile of a set of
// per-repetition values.
type quartiles struct {
	Q1     num `json:"q1"`
	Median num `json:"median"`
	Q3     num `json:"q3"`
	N      int `json:"n"`
}

// spread is the distance between the quartiles as a share of the median;
// 0 for a constant or single value, +Inf when the median is 0 but the
// quartiles differ.
func (q quartiles) spread() float64 {
	d := float64(q.Q3 - q.Q1)
	if d == 0 || math.IsNaN(d) {
		return 0
	}
	if q.Median == 0 {
		return math.Inf(1)
	}
	return math.Abs(d / float64(q.Median))
}

// overReps reduces per-repetition values to their median and quartiles.
// NaNs (repetitions that produced no value) are dropped first; with nothing
// left every field is NaN. The quartiles follow Python's
// statistics.quantiles(values, n=4) (exclusive method), the rule the
// acceptance check uses, and collapse to the single value when N = 1.
func overReps(values []float64) quartiles {
	v := make([]float64, 0, len(values))
	for _, x := range values {
		if !math.IsNaN(x) {
			v = append(v, x)
		}
	}
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		nan := num(math.NaN())
		return quartiles{Q1: nan, Median: nan, Q3: nan}
	case 1:
		return quartiles{Q1: num(v[0]), Median: num(v[0]), Q3: num(v[0]), N: 1}
	}
	at := func(i int) num { // i-th of the 3 cut points, as CPython computes it
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return num((v[j-1]*(4-delta) + v[j]*delta) / 4)
	}
	return quartiles{Q1: at(1), Median: at(2), Q3: at(3), N: n}
}

// batchMeans converts batch durations (ns per batch of size ops) to
// per-operation samples.
func batchMeans(batchNs []uint32, size int) []float64 {
	out := make([]float64, len(batchNs))
	for i, d := range batchNs {
		out[i] = float64(d) / float64(size)
	}
	return out
}
