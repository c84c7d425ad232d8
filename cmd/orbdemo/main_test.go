package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

func TestRunBothCompadres(t *testing.T) {
	if err := run("both", "127.0.0.1:0", "compadres", 64, 50, 10, "", false, 1, 1); err != nil {
		t.Fatal(err)
	}
	// The run must leave a stitched trace and live counters behind — the
	// demo's observability contract.
	var trace uint64
	for _, ev := range telemetry.Default.Ring().Snapshot() {
		if ev.Kind == telemetry.EvSpanStart && ev.Label == "orb.client.invoke" {
			trace = ev.Trace
		}
	}
	if trace == 0 {
		t.Fatal("no client span in the flight recorder after the run")
	}
	var serverSpan bool
	for _, ev := range telemetry.Default.Ring().TraceEvents(trace) {
		if ev.Label == "orb.server.request" {
			serverSpan = true
		}
	}
	if !serverSpan {
		t.Error("client trace has no server span: round trip not stitched")
	}
	var enters int64
	for _, c := range telemetry.Default.Snapshot(telemetry.SnapshotOptions{}).Counters {
		if c.Name == "scope_enter_total" {
			enters = c.Value
		}
	}
	if enters == 0 {
		t.Error("scope_enter_total = 0 after a full echo run")
	}
}

func TestRunBothRTZen(t *testing.T) {
	if err := run("both", "127.0.0.1:0", "rtzen", 64, 50, 10, "", false, 1, 1); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsEndpoint scrapes the handler the -metrics listener serves while
// an ORB pair is live, so the per-port gauges are still registered. It also
// drives run with a bound metrics address to cover serveMetrics.
func TestMetricsEndpoint(t *testing.T) {
	if err := run("both", "127.0.0.1:0", "compadres", 32, 10, 2, "127.0.0.1:0", false, 1, 1); err != nil {
		t.Fatal(err)
	}
	srv, err := startServer("compadres", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := dialClient("compadres", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Invoke("echo", "echo", []byte("hi"), sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(telemetry.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{"compadres_scope_enter_total", "compadres_port_sent"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics scrape missing %q", want)
		}
	}
}

// TestRunBothChaos replays a seeded fault schedule over real loopback TCP;
// the resilient idempotent-invoke path must still complete every round trip.
func TestRunBothChaos(t *testing.T) {
	if err := run("both", "127.0.0.1:0", "compadres", 64, 40, 5, "", true, 1, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("both", "127.0.0.1:0", "mysteryorb", 64, 10, 1, "", false, 1, 1); err == nil {
		t.Error("unknown orb accepted")
	}
	if err := run("sideways", "127.0.0.1:0", "compadres", 64, 10, 1, "", false, 1, 1); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run("client", "127.0.0.1:1", "compadres", 64, 10, 1, "", false, 1, 1); err == nil {
		t.Error("client against dead address succeeded")
	}
	if _, err := startServer("nope", ""); err == nil {
		t.Error("unknown orb server accepted")
	}
	if _, err := dialClient("nope", ""); err == nil {
		t.Error("unknown orb client accepted")
	}
	if err := run("both", "127.0.0.1:0", "rtzen", 64, 10, 1, "", true, 1, 1); err == nil {
		t.Error("-chaos with the rtzen baseline accepted")
	}
	// Out-of-range counts are usage errors, refused before anything is
	// started or allocated.
	for _, c := range []struct {
		name                         string
		size, n, warmup, concurrency int
	}{
		{"-n -1", 64, -1, 1, 1},
		{"-n 0", 64, 0, 1, 1},
		{"-size -1", -1, 10, 1, 1},
		{"-warmup -1", 64, 10, -1, 1},
		{"-concurrency 0", 64, 10, 1, 0},
	} {
		if err := run("both", "127.0.0.1:0", "compadres", c.size, c.n, c.warmup, "", false, 1, c.concurrency); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestRunConcurrentSweep(t *testing.T) {
	// The pipelined sweep over one multiplexed connection: levels 1..8.
	if err := run("both", "127.0.0.1:0", "compadres", 64, 160, 20, "", false, 1, 8); err != nil {
		t.Fatal(err)
	}
	// rtzen serialises exchanges; -concurrency must refuse it, and the
	// chaos demo is a separate mode.
	if err := run("both", "127.0.0.1:0", "rtzen", 64, 10, 1, "", false, 1, 4); err == nil {
		t.Error("-concurrency with rtzen accepted")
	}
	if err := run("both", "127.0.0.1:0", "compadres", 64, 10, 1, "", true, 1, 4); err == nil {
		t.Error("-concurrency with -chaos accepted")
	}
}
