package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
)

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge reading in a snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Label string `json:"label,omitempty"`
	Value int64  `json:"value"`
}

// Snapshot is a JSON-exportable view of a registry: every counter, a
// reading of every gauge, histogram summaries, recent faults, and
// (optionally) the flight-recorder contents.
type Snapshot struct {
	// UptimeNanos is Now() at snapshot time.
	UptimeNanos int64               `json:"uptime_ns"`
	Counters    []CounterValue      `json:"counters"`
	Gauges      []GaugeValue        `json:"gauges"`
	Histograms  []HistogramSnapshot `json:"histograms,omitempty"`
	FaultsTotal int64               `json:"faults_total"`
	Faults      []Fault             `json:"faults,omitempty"`
	Events      []Event             `json:"events,omitempty"`
}

// SnapshotOptions selects what a snapshot includes beyond counters and
// gauges.
type SnapshotOptions struct {
	// Events includes the flight-recorder contents.
	Events bool
}

// Snapshot captures the registry's current state. Counters and gauges are
// sorted by name (then label) so output is stable.
func (r *Registry) Snapshot(opts SnapshotOptions) Snapshot {
	r.mu.Lock()
	counters := append([]*Counter(nil), r.counters...)
	s := Snapshot{UptimeNanos: Now()}
	fns := make([]func() int64, 0, len(r.gauges))
	for k, fn := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: k.name, Label: k.label})
		fns = append(fns, fn)
	}
	hists := append([]*Histogram(nil), r.hists...)
	r.mu.Unlock()

	for _, c := range counters {
		s.Counters = append(s.Counters, CounterValue{Name: c.name, Value: c.Value()})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	for i, fn := range fns {
		s.Gauges[i].Value = fn()
	}
	sort.Slice(s.Gauges, func(i, j int) bool {
		if s.Gauges[i].Name != s.Gauges[j].Name {
			return s.Gauges[i].Name < s.Gauges[j].Name
		}
		return s.Gauges[i].Label < s.Gauges[j].Label
	})
	for _, h := range hists {
		s.Histograms = append(s.Histograms, h.Snapshot())
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	s.Faults, s.FaultsTotal = r.Faults()
	if opts.Events {
		s.Events = r.ring.Snapshot()
	}
	return s
}

// WriteJSON writes an indented JSON snapshot.
func (r *Registry) WriteJSON(w io.Writer, opts SnapshotOptions) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot(opts))
}

// WriteMetricsText renders the registry in the text exposition format
// Prometheus-style scrapers expect: one "name value" or
// `name{instance="label"} value` line per series.
func (r *Registry) WriteMetricsText(w io.Writer) error {
	s := r.Snapshot(SnapshotOptions{})
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "compadres_%s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if g.Label == "" {
			if _, err := fmt.Fprintf(w, "compadres_%s %d\n", g.Name, g.Value); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "compadres_%s{instance=%q} %d\n", g.Name, g.Label, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "compadres_%s_count %d\ncompadres_%s_sum %d\ncompadres_%s_min %d\ncompadres_%s_max %d\ncompadres_%s_p50 %d\ncompadres_%s_p99 %d\n",
			h.Name, h.Count, h.Name, h.Sum, h.Name, h.Min, h.Name, h.Max, h.Name, h.P50, h.Name, h.P99); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "compadres_faults_total %d\n", s.FaultsTotal); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "compadres_events_recorded_total %d\n", r.ring.Len())
	return err
}

// DumpTrace writes the events of one trace, oldest first, in a compact
// human-readable form — the stitched view of a cross-ORB round trip.
func (r *Registry) DumpTrace(w io.Writer, trace uint64) error {
	events := r.ring.TraceEvents(trace)
	if len(events) == 0 {
		_, err := fmt.Fprintf(w, "trace %016x: no events\n", trace)
		return err
	}
	if _, err := fmt.Fprintf(w, "trace %016x (%d events):\n", trace, len(events)); err != nil {
		return err
	}
	base := events[0].When
	for _, ev := range events {
		if _, err := fmt.Fprintf(w, "  +%8.1fµs %-13s span=%016x %s arg=%d\n",
			float64(ev.When-base)/1e3, ev.KindName, ev.Span, ev.Label, ev.Arg); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry over HTTP:
//
//	/metrics        text exposition (counters, gauges, histograms)
//	/snapshot.json  full JSON snapshot including the flight recorder
//	/trace?id=hex   one stitched trace, human-readable
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = r.WriteMetricsText(w)
	})
	mux.HandleFunc("/snapshot.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w, SnapshotOptions{Events: true})
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		var trace uint64
		if _, err := fmt.Sscanf(req.URL.Query().Get("id"), "%x", &trace); err != nil {
			http.Error(w, "trace: want ?id=<hex>", http.StatusBadRequest)
			return
		}
		_ = r.DumpTrace(w, trace)
	})
	return mux
}

// Handler serves the Default registry (see Registry.Handler).
func Handler() http.Handler { return Default.Handler() }
