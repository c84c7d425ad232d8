package metrics

import (
	"errors"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSummarizeBasics(t *testing.T) {
	samples := []time.Duration{ms(5), ms(1), ms(3), ms(2), ms(4)}
	s := Summarize(samples)
	if s.Count != 5 {
		t.Errorf("count = %d", s.Count)
	}
	if s.Min != ms(1) || s.Max != ms(5) {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Median != ms(3) {
		t.Errorf("median = %v", s.Median)
	}
	if s.Jitter != ms(4) {
		t.Errorf("jitter = %v", s.Jitter)
	}
	if s.Mean != ms(3) {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.P99 != ms(5) {
		t.Errorf("p99 = %v", s.P99)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Errorf("empty summary = %+v", s)
	}
}

// The nearest-rank percentile clamps at both ends and rounds the rank up.
func TestPercentileSorted(t *testing.T) {
	sorted := []time.Duration{ms(1), ms(2), ms(3), ms(4)}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{0, ms(1)}, {50, ms(2)}, {51, ms(3)}, {100, ms(4)}} {
		if got := percentileSorted(sorted, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestMicros(t *testing.T) {
	if got := Micros(1500 * time.Nanosecond); got != "1.5" {
		t.Errorf("Micros = %q", got)
	}
}

func TestHistogram(t *testing.T) {
	samples := []time.Duration{ms(1), ms(1), ms(2), ms(10)}
	h := Histogram(samples, 3, 20)
	if !strings.Contains(h, "#") {
		t.Errorf("histogram has no bars:\n%s", h)
	}
	if lines := strings.Count(h, "\n"); lines != 3 {
		t.Errorf("histogram lines = %d, want 3", lines)
	}
	if Histogram(nil, 3, 20) != "(no samples)\n" {
		t.Error("empty histogram wrong")
	}
	// Degenerate case: all samples identical.
	same := []time.Duration{ms(2), ms(2)}
	if h := Histogram(same, 2, 10); !strings.Contains(h, "2") {
		t.Errorf("degenerate histogram:\n%s", h)
	}
}

func TestRunSteadyState(t *testing.T) {
	var calls int
	s, err := RunSteadyState(3, 5, func() error {
		calls++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 8 {
		t.Errorf("calls = %d, want 8", calls)
	}
	if s.Count != 5 {
		t.Errorf("measured = %d, want 5", s.Count)
	}
}

func TestRunSteadyStateErrors(t *testing.T) {
	boom := errors.New("boom")
	if _, err := RunSteadyState(1, 1, func() error { return boom }); !errors.Is(err, boom) {
		t.Errorf("warmup err = %v", err)
	}
	n := 0
	if _, err := RunSteadyState(0, 3, func() error {
		n++
		if n == 2 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Errorf("measure err = %v", err)
	}
}

// Property: the summary order statistics agree with direct computation on
// the sorted sample, and Min <= Median <= P99 <= Max always holds.
func TestPropertySummaryConsistency(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		for i, v := range raw {
			samples[i] = time.Duration(v) * time.Microsecond
		}
		s := Summarize(samples)
		sorted := make([]time.Duration, len(samples))
		copy(sorted, samples)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if s.Min != sorted[0] || s.Max != sorted[len(sorted)-1] {
			return false
		}
		if s.Jitter != s.Max-s.Min {
			return false
		}
		return s.Min <= s.Median && s.Median <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
