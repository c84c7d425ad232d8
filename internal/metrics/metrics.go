// Package metrics implements the measurement methodology of §3.1 of the
// paper: steady-state observation after a warm-up phase, a sample of
// (typically) 10,000 round-trip latencies, and summary statistics centred
// on the median and the jitter (max − min), "another measure of a system's
// predictability".
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// DefaultObservations is the paper's sample size: "we used the maximum of
// 10,000 observations as an estimate of a system's worst case".
const DefaultObservations = 10000

// DefaultWarmup is the number of iterations discarded before measuring,
// "run until the transitory effects of cold starts are eliminated".
const DefaultWarmup = 1000

// Summary reports the statistics the paper's tables and figures use.
type Summary struct {
	// Count is the number of observations.
	Count int
	// Min and Max bound the distribution.
	Min, Max time.Duration
	// Median is the paper's headline latency statistic.
	Median time.Duration
	// Jitter is Max − Min, the paper's predictability measure.
	Jitter time.Duration
	// Mean and StdDev complement the order statistics.
	Mean, StdDev time.Duration
	// P99 is the 99th percentile.
	P99 time.Duration
}

// Summarize computes a Summary over samples. An empty input yields a zero
// Summary.
func Summarize(samples []time.Duration) Summary {
	n := len(samples)
	if n == 0 {
		return Summary{}
	}
	sorted := make([]time.Duration, n)
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var sum float64
	for _, d := range sorted {
		sum += float64(d)
	}
	mean := sum / float64(n)
	var sq float64
	for _, d := range sorted {
		diff := float64(d) - mean
		sq += diff * diff
	}
	std := math.Sqrt(sq / float64(n))

	return Summary{
		Count:  n,
		Min:    sorted[0],
		Max:    sorted[n-1],
		Median: percentileSorted(sorted, 50),
		Jitter: sorted[n-1] - sorted[0],
		Mean:   time.Duration(mean),
		StdDev: time.Duration(std),
		P99:    percentileSorted(sorted, 99),
	}
}

// percentileSorted uses the nearest-rank method on a sorted sample.
func percentileSorted(sorted []time.Duration, p float64) time.Duration {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Micros renders a duration as microseconds with one decimal, the unit the
// paper reports in.
func Micros(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Microsecond))
}

// String renders the summary in paper style.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d median=%sµs jitter=%sµs min=%sµs max=%sµs p99=%sµs",
		s.Count, Micros(s.Median), Micros(s.Jitter), Micros(s.Min), Micros(s.Max), Micros(s.P99))
}

// Histogram renders an ASCII histogram of the observations with the given
// number of buckets, used by the bench harness to visualise distributions
// like Fig. 9.
func Histogram(samples []time.Duration, buckets int, width int) string {
	if len(samples) == 0 || buckets <= 0 {
		return "(no samples)\n"
	}
	s := Summarize(samples)
	span := s.Max - s.Min
	if span == 0 {
		span = 1
	}
	counts := make([]int, buckets)
	for _, d := range samples {
		i := int(int64(d-s.Min) * int64(buckets) / (int64(span) + 1))
		if i >= buckets {
			i = buckets - 1
		}
		counts[i]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i, c := range counts {
		lo := s.Min + time.Duration(int64(span)*int64(i)/int64(buckets))
		hi := s.Min + time.Duration(int64(span)*int64(i+1)/int64(buckets))
		bar := ""
		if maxCount > 0 {
			bar = strings.Repeat("#", c*width/maxCount)
		}
		fmt.Fprintf(&b, "%8sµs-%8sµs |%-*s %d\n", Micros(lo), Micros(hi), width, bar, c)
	}
	return b.String()
}

// RunSteadyState drives op through warmup discarded iterations and then n
// measured ones, timing each call — the paper's measurement loop.
func RunSteadyState(warmup, n int, op func() error) (Summary, error) {
	for i := 0; i < warmup; i++ {
		if err := op(); err != nil {
			return Summary{}, fmt.Errorf("warmup iteration %d: %w", i, err)
		}
	}
	samples := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := op(); err != nil {
			return Summary{}, fmt.Errorf("iteration %d: %w", i, err)
		}
		samples = append(samples, time.Since(start))
	}
	return Summarize(samples), nil
}
