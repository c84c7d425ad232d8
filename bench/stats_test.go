package main

import (
	"encoding/json"
	"math"
	"testing"
)

func same(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b)) || math.Abs(a-b) < 1e-9
}

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"empty", nil, 0.5, math.NaN()},
		{"single median", []float64{7}, 0.5, 7},
		{"single p99", []float64{7}, 0.99, 7},
		{"median of ten", ten, 0.5, 5},
		{"p90 of ten", ten, 0.9, 9},
		{"p99 of ten", ten, 0.99, 10},
		{"first decile of ten", ten, 0.1, 1},
		{"q above one clamps", ten, 1.5, 10},
		{"q of zero clamps", ten, 0, 1},
	} {
		if got := percentile(tc.sorted, tc.q); !same(got, tc.want) {
			t.Errorf("%s: percentile = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n          int
		wantQ      float64
		wantBeyond int
	}{
		{0, 0.50, 0},
		{1, 0.50, 0},
		{19, 0.50, 9},
		{40, 0.75, 10},
		{100, 0.90, 10},
		{200, 0.95, 10},
		{999, 0.95, 49}, // ceil(989.01) = 990: only 9 beyond p99
		{1000, 0.99, 10},
		{100000, 0.99, 1000},
	} {
		q, beyond := supportedTail(tc.n)
		if q != tc.wantQ || beyond != tc.wantBeyond {
			t.Errorf("supportedTail(%d) = p%g with %d beyond, want p%g with %d", tc.n, q*100, beyond, tc.wantQ*100, tc.wantBeyond)
		}
		if tc.n >= 2*tailSamples && beyond < tailSamples {
			t.Errorf("supportedTail(%d): only %d samples beyond p%g", tc.n, beyond, q*100)
		}
	}
}

func TestSummarize(t *testing.T) {
	if s := summarize(nil); s.N != 0 || !math.IsNaN(float64(s.P50)) || !math.IsNaN(float64(s.Tail)) {
		t.Errorf("all-failed sample: got %+v, want N=0 and NaNs", s)
	}
	if s := summarize([]float64{42}); s.N != 1 || s.P50 != 42 || s.Tail != 42 || s.TailQ != 0.5 {
		t.Errorf("single sample: got %+v", s)
	}
	v := make([]float64, 2000)
	for i := range v {
		v[i] = float64(2000 - i) // unsorted on purpose
	}
	s := summarize(v)
	if s.N != 2000 || s.P50 != 1000 || s.Tail != 1980 || s.TailQ != 0.99 || s.Beyond != 20 {
		t.Errorf("2000 samples: got %+v", s)
	}
}

// TestOverRepsMatchesPython pins the quartiles to what CPython's
// statistics.quantiles(values, n=4) returns, the rule the acceptance check
// applies to ten runs.
func TestOverRepsMatchesPython(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name           string
		in             []float64
		q1, median, q3 float64
		n              int
		spread         float64
	}{
		{"empty", nil, nan, nan, nan, 0, 0},
		{"all failed", []float64{nan, nan}, nan, nan, nan, 0, 0},
		{"single", []float64{3}, 3, 3, 3, 1, 0},
		{"single among failures", []float64{nan, 3, nan}, 3, 3, 3, 1, 0},
		{"two", []float64{1, 2}, 0.75, 1.5, 2.25, 2, 1},
		{"five", []float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5, 5, 1},
		{"ten", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 10, 1},
		{"constant", []float64{2, 2, 2, 2, 2}, 2, 2, 2, 5, 0},
	} {
		q := overReps(tc.in)
		if !same(float64(q.Q1), tc.q1) || !same(float64(q.Median), tc.median) || !same(float64(q.Q3), tc.q3) || q.N != tc.n {
			t.Errorf("%s: overReps = %+v, want q1 %v median %v q3 %v n %d", tc.name, q, tc.q1, tc.median, tc.q3, tc.n)
		}
		if got := q.spread(); !same(got, tc.spread) {
			t.Errorf("%s: spread = %v, want %v", tc.name, got, tc.spread)
		}
	}
	if s := (quartiles{Q1: 0, Median: 0, Q3: 1}).spread(); !math.IsInf(s, 1) {
		t.Errorf("spread around a zero median = %v, want +Inf", s)
	}
}

func TestBatchMeans(t *testing.T) {
	got := batchMeans([]uint32{6400, 12800}, 64)
	if len(got) != 2 || got[0] != 100 || got[1] != 200 {
		t.Errorf("batchMeans = %v, want [100 200]", got)
	}
	if got := batchMeans(nil, 64); len(got) != 0 {
		t.Errorf("batchMeans(nil) = %v, want empty", got)
	}
}

func TestNumSurvivesJSON(t *testing.T) {
	in := quartiles{Q1: num(math.NaN()), Median: 1.5, Q3: num(math.Inf(1)), N: 1}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"q1":null,"median":1.5,"q3":null,"n":1}` {
		t.Errorf("marshalled %s", data)
	}
	var out quartiles
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(out.Q1)) || out.Median != 1.5 || !math.IsNaN(float64(out.Q3)) {
		t.Errorf("read back %+v", out)
	}
}

func TestJudge(t *testing.T) {
	mv := func(v, q1, q3, bound float64, better string) metricValue {
		return metricValue{Value: num(v), Q1: num(q1), Q3: num(q3), Bound: bound, Better: better}
	}
	for _, tc := range []struct {
		name string
		a, b metricValue
		want string
	}{
		{"lower: within bound", mv(100, 99, 101, 0.10, "lower"), mv(105, 104, 106, 0.10, "lower"), verdictSame},
		{"lower: slower beyond bound", mv(100, 99, 101, 0.10, "lower"), mv(115, 114, 116, 0.10, "lower"), verdictWorse},
		{"lower: faster beyond bound", mv(100, 99, 101, 0.10, "lower"), mv(80, 79, 81, 0.10, "lower"), verdictBetter},
		{"higher: fewer beyond bound", mv(100, 99, 101, 0.10, "higher"), mv(85, 84, 86, 0.10, "higher"), verdictWorse},
		{"higher: more beyond bound", mv(100, 99, 101, 0.10, "higher"), mv(120, 119, 121, 0.10, "higher"), verdictBetter},
		{"spread wider than bound", mv(100, 90, 110, 0.10, "lower"), mv(130, 129, 131, 0.10, "lower"), verdictUnresolved},
		{"no value", mv(math.NaN(), math.NaN(), math.NaN(), 0.10, "lower"), mv(1, 1, 1, 0.10, "lower"), verdictUnresolved},
		{"constant", mv(1, 1, 1, 0.001, "higher"), mv(1, 1, 1, 0.001, "higher"), verdictSame},
		{"ok fraction drops", mv(1, 1, 1, 0.001, "higher"), mv(0.99, 0.99, 0.99, 0.001, "higher"), verdictWorse},
	} {
		if got, _, _ := judge(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
