package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry(16)
	c := r.Counter("test_total")
	if r.Counter("test_total") != c {
		t.Fatal("Counter not idempotent by name")
	}
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
}

func TestCounterAddNoAlloc(t *testing.T) {
	c := NewRegistry(16).Counter("alloc_test")
	allocs := testing.AllocsPerRun(1000, func() { c.Add(1) })
	if allocs != 0 {
		t.Errorf("Counter.Add allocates %.1f/op, want 0", allocs)
	}
}

func TestLabelIntern(t *testing.T) {
	a := Label("port.a")
	b := Label("port.b")
	if a == b {
		t.Fatal("distinct labels share an id")
	}
	if Label("port.a") != a {
		t.Error("re-interning changed the id")
	}
	if a.Name() != "port.a" || b.Name() != "port.b" {
		t.Errorf("names = %q, %q", a.Name(), b.Name())
	}
	if Label("") != 0 || LabelID(0).Name() != "" {
		t.Error("empty label must map to id 0")
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		id := NewID()
		if id == 0 {
			t.Fatal("NewID returned 0")
		}
		if seen[id] {
			t.Fatalf("duplicate id %x", id)
		}
		seen[id] = true
	}
}

func TestHistogramBucketsRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 31, 32, 33, 100, 1000, 1 << 20, 1<<40 + 12345} {
		i := bucketIndex(v)
		lo, hi := bucketLow(i), bucketLow(i+1)
		if v < lo || v >= hi {
			t.Errorf("value %d bucketed to [%d, %d)", v, lo, hi)
		}
	}
	// Bucket lows must be strictly monotonic over the whole range.
	prev := int64(-1)
	for i := 0; i < histBuckets; i++ {
		lo := bucketLow(i)
		if lo <= prev && i > 0 {
			t.Fatalf("bucketLow(%d) = %d not > bucketLow(%d) = %d", i, lo, i-1, prev)
		}
		prev = lo
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewRegistry(16).Histogram("lat")
	for i := int64(1); i <= 1000; i++ {
		h.Record(i * 1000) // 1µs .. 1ms
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1000000 {
		t.Errorf("max = %d", h.Max())
	}
	p50 := h.Quantile(0.5)
	if p50 < 400000 || p50 > 650000 {
		t.Errorf("p50 = %d, want ≈500000", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900000 || p99 > 1100000 {
		t.Errorf("p99 = %d, want ≈990000", p99)
	}
	if q := h.Quantile(0); q > h.Quantile(1) {
		t.Errorf("q0 %d > q1 %d", q, h.Quantile(1))
	}
}

func TestHistogramRecordNoAlloc(t *testing.T) {
	h := NewRegistry(16).Histogram("alloc")
	allocs := testing.AllocsPerRun(1000, func() { h.Record(12345) })
	if allocs != 0 {
		t.Errorf("Histogram.Record allocates %.1f/op, want 0", allocs)
	}
}

func TestSnapshotAndMetricsText(t *testing.T) {
	r := NewRegistry(16)
	r.Counter("sends_total").Add(7)
	var depth int64 = 3
	h := r.RegisterGauge("queue_depth", "Pong.in", func() int64 { return depth })
	r.Histogram("rt").Record(5000)
	r.RecordFault("transport.dial", errFor("boom"))

	s := r.Snapshot(SnapshotOptions{Events: true})
	if len(s.Counters) != 1 || s.Counters[0].Value != 7 {
		t.Errorf("counters = %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 3 || s.Gauges[0].Label != "Pong.in" {
		t.Errorf("gauges = %+v", s.Gauges)
	}
	if s.FaultsTotal != 1 || len(s.Faults) != 1 || s.Faults[0].Err != "boom" {
		t.Errorf("faults = %d %+v", s.FaultsTotal, s.Faults)
	}
	if len(s.Events) != 1 || s.Events[0].Kind != EvFault {
		t.Errorf("events = %+v", s.Events)
	}

	var buf bytes.Buffer
	if err := r.WriteMetricsText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"compadres_sends_total 7",
		`compadres_queue_depth{instance="Pong.in"} 3`,
		"compadres_rt_count 1",
		"compadres_faults_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics text missing %q:\n%s", want, text)
		}
	}

	buf.Reset()
	if err := r.WriteJSON(&buf, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}

	// Unregistering removes the gauge; a duplicate label gets suffixed.
	h2 := r.RegisterGauge("queue_depth", "Pong.in", func() int64 { return 9 })
	s = r.Snapshot(SnapshotOptions{})
	if len(s.Gauges) != 2 || s.Gauges[1].Label != "Pong.in#2" {
		t.Errorf("duplicate gauge labels = %+v", s.Gauges)
	}
	h.Unregister()
	h2.Unregister()
	if s := r.Snapshot(SnapshotOptions{}); len(s.Gauges) != 0 {
		t.Errorf("gauges after unregister = %+v", s.Gauges)
	}
}

func TestRegisterGaugesGroup(t *testing.T) {
	r := NewRegistry(16)
	h := r.RegisterGauges("Pool.x", map[string]func() int64{
		"executed": func() int64 { return 1 },
		"workers":  func() int64 { return 2 },
	})
	if s := r.Snapshot(SnapshotOptions{}); len(s.Gauges) != 2 {
		t.Fatalf("gauges = %+v", s.Gauges)
	}
	h.Unregister()
	if s := r.Snapshot(SnapshotOptions{}); len(s.Gauges) != 0 {
		t.Errorf("gauges after group unregister = %+v", s.Gauges)
	}
}

func TestEnableToggle(t *testing.T) {
	defer Enable(true)
	before := Default.Ring().Len()
	Enable(false)
	Record(EvSend, 0, 0, 0, 0)
	if Default.Ring().Len() != before {
		t.Error("disabled recorder still recorded")
	}
	Enable(true)
	Record(EvSend, 0, 0, 0, 0)
	if Default.Ring().Len() != before+1 {
		t.Error("enabled recorder did not record")
	}
}

// errFor builds a distinct error value without importing errors in several
// places.
type strErr string

func (e strErr) Error() string { return string(e) }

func errFor(s string) error { return strErr(s) }
