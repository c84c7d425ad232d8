package main

// The metric tables. BENCHMARK.json lists the same names, units, directions
// and bounds; bench_test.go fails when the two disagree.

// e2eMetric is one end-to-end metric: what a user of the system would see.
type e2eMetric struct {
	name, unit, better string
	// bound is the share of the parent's median by which the metric may get
	// worse before a change counts as a regression.
	bound float64
	// of extracts the metric from one repetition; NaN when it has none.
	of func(*repResult) float64
}

// Latency and throughput are at reference machine speed (legSummary,
// calibrate.go); the raw values and the speed factors are in the result.
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25, func(r *repResult) float64 { return float64(r.SetupS) }},
	{"rtt_p50_us", "us", "lower", 0.10, func(r *repResult) float64 { return float64(r.Main.P50) / 1e3 }},
	{"rtt_p99_us", "us", "lower", 0.25, func(r *repResult) float64 { return float64(r.Main.Tail) / 1e3 }},
	// A closed loop completes callers / mean round trip per second, so what
	// ops_per_s sees beyond rtt_p50_us (gated at 10 % on every workload) is the
	// weight of the slow round trips. On orb_lockstep at GOMAXPROCS = 2 the
	// slowest tenth take 20 to 45 µs against a median under 10 µs, and their
	// weight follows the host's load: runs of one commit spread 2.5 % in a quiet
	// hour and 10 % in a busy one (README, finding 5). Hence the widest bound.
	{"ops_per_s", "1/s", "higher", 0.25, func(r *repResult) float64 { return float64(r.Main.OpsPerS) }},
	// RTZen is the control, not the program under test: when it moves, the
	// machine moved (in a slow spell of the host its hand-offs between two
	// threads slow by 5 to 28 % more than the calibration loop shows). A
	// tight bound here would reject changes for the host's mood.
	{"baseline_rtt_p50_us", "us", "lower", 0.25, func(r *repResult) float64 { return float64(r.Baseline.P50) / 1e3 }},
	// The issue's failed_fraction and allocs_per_op are 0 on a healthy run,
	// and a bound that is a share of the parent's median cannot gate a 0.
	// They are reported as their never-zero forms: the share of operations
	// answered correctly, and one plus the allocations per operation.
	{"ok_fraction", "ratio", "higher", 0.001, func(r *repResult) float64 {
		if r.Attempted == 0 {
			return 0
		}
		return 1 - float64(r.Failed)/float64(r.Attempted)
	}},
	{"allocs_per_op_plus1", "count", "lower", 0.25, func(r *repResult) float64 { return 1 + float64(r.AllocsPerOp) }},
	{"mem_peak_mb", "MB", "lower", 0.10, func(r *repResult) float64 { return float64(r.MemPeakMB) }},
}

// layerMetric is one per-layer metric of the traced run. home says which
// traced run measures it: "" is a probe (every traced run), "*" a span or
// count every workload's traced repetition yields, "orb" the three ORB
// workloads, anything else the one workload it belongs to. A traced run
// reports the metrics it does not measure as 0.
type layerMetric struct{ name, unit, better, home string }

var perLayer = []layerMetric{
	// harness
	{"bench.clock_read_ns", "ns", "lower", ""},
	{"bench.trace_overhead_ns", "ns", "lower", "*"},
	{"bench.speed_factor", "ratio", "higher", "*"},
	// What the quiet-slice statistics leave out: the untraced repetitions'
	// plain whole-window values as the clock gave them, and how many slices
	// were quiet.
	{"bench.quiet_share", "ratio", "higher", "*"},
	{"bench.raw_rtt_p50_us", "us", "lower", "*"},
	{"bench.raw_rtt_p99_us", "us", "lower", "*"},
	{"bench.raw_ops_per_s", "1/s", "higher", "*"},
	// cdl, ccl, compiler: setup_s on pingpong_sync
	{"cdl.parse_us", "us", "lower", ""},
	{"ccl.parse_us", "us", "lower", ""},
	{"compiler.compile_us", "us", "lower", ""},
	{"compiler.assemble_start_us", "us", "lower", ""},
	// orb set-up: setup_s on the ORB workloads
	{"orb.server_new_us", "us", "lower", ""},
	{"orb.client_dial_us", "us", "lower", ""},
	// core
	{"core.hop_p1p2_ns", "ns", "lower", "pingpong_sync"},
	{"core.hop_p3p4_ns", "ns", "lower", "pingpong_sync"},
	{"core.hop_p5p6_ns", "ns", "lower", "pingpong_sync"},
	{"core.return_ns", "ns", "lower", "pingpong_sync"},
	{"core.send_sync_ns", "ns", "lower", ""},
	{"core.send_pool_ns", "ns", "lower", ""},
	{"core.port_sends_per_op", "count", "lower", "*"},
	{"core.inport_queue_max", "count", "lower", "*"},
	{"core.msgpool_inflight_max", "count", "lower", "*"},
	{"core.inport_dropped", "count", "lower", "*"},
	// memory
	{"memory.enter_exit_ns", "ns", "lower", ""},
	{"memory.execute_in_area_ns", "ns", "lower", ""},
	{"memory.enter_chain3_ns", "ns", "lower", ""},
	{"memory.scopepool_cycle_ns", "ns", "lower", ""},
	{"memory.scope_enters_per_op", "count", "lower", "*"},
	{"memory.scopepool_reuse_ratio", "ratio", "higher", "*"},
	// sched
	{"sched.pool_submit_run_ns", "ns", "lower", ""},
	{"sched.fairqueue_push_pop_ns", "ns", "lower", ""},
	// giop
	{"giop.marshal_request_ns", "ns", "lower", ""},
	{"giop.decode_request_ns", "ns", "lower", ""},
	{"giop.peek_request_info_ns", "ns", "lower", ""},
	{"giop.marshal_reply_ns", "ns", "lower", ""},
	{"giop.decode_reply_ns", "ns", "lower", ""},
	{"giop.framereader_next_ns", "ns", "lower", ""},
	{"giop.frame_acquire_release_ns", "ns", "lower", ""},
	{"giop.frames_per_op", "count", "lower", "*"},
	{"giop.frame_recycle_ratio", "ratio", "higher", "*"},
	{"giop.frame_detaches_per_op", "count", "lower", "*"},
	{"giop.payload_copies_per_op", "count", "lower", "*"},
	// transport
	{"transport.inproc_rtt_ns", "ns", "lower", ""},
	{"transport.tcp_rtt_ns", "ns", "lower", ""},
	{"transport.tcp_write_ns", "ns", "lower", ""},
	{"transport.tcp_writev8_ns", "ns", "lower", ""},
	// orb
	{"orb.request_path_us", "us", "lower", "orb"},
	{"orb.servant_us", "us", "lower", "orb"},
	{"orb.reply_path_us", "us", "lower", "orb"},
	{"orb.residual_us", "us", "lower", "orb_lockstep"},
	{"orb.overhead_vs_rtzen_us", "us", "lower", "orb_lockstep"},
	{"orb.ratio_vs_rtzen", "ratio", "lower", "orb_lockstep"},
	{"orb.rtt_p50_us.32B", "us", "lower", "orb_lockstep"},
	{"orb.rtt_p50_us.1024B", "us", "lower", "orb_lockstep"},
	{"orb.invoke_view_rtt_us", "us", "lower", "orb_lockstep"},
	{"orb.oneway_submit_ns", "ns", "lower", "orb_lockstep"},
	{"orb.pipelined_coalesce_ops_per_s", "1/s", "higher", "orb_pipelined"},
	{"orb.pipelined_sync_ops_per_s", "1/s", "higher", "orb_pipelined"},
	{"orb.coalesce_batch_frames_p50", "count", "higher", "orb_pipelined"},
	{"orb.mux_reorder_per_op", "count", "lower", "*"},
	{"orb.mux_stale_drops", "count", "lower", "*"},
	{"orb.collocated_path_share", "ratio", "higher", "*"},
	{"orb.mp_probe_ops_per_s", "1/s", "higher", "orb_pipelined"},
	{"orb.mp_probe_failed_fraction", "ratio", "lower", "orb_pipelined"},
	{"orb.mp_probe_first_failure_s", "s", "higher", "orb_pipelined"},
	// rtzen: the baseline leg's side of the stage bill
	{"rtzen.request_path_us", "us", "lower", "*"},
	{"rtzen.servant_us", "us", "lower", "*"},
	{"rtzen.reply_path_us", "us", "lower", "*"},
	{"rtzen.scope_enters_per_op", "count", "lower", "*"},
	{"rtzen.residual_us", "us", "lower", "orb_lockstep"},
	{"rtzen.rtt_p50_us.32B", "us", "lower", "orb_lockstep"},
	{"rtzen.rtt_p50_us.1024B", "us", "lower", "orb_lockstep"},
	// overload
	{"overload.admit_done_ns", "ns", "lower", ""},
	{"overload.limit_end", "count", "higher", "collocated_admit"},
	{"overload.level_end", "count", "lower", "collocated_admit"},
	{"overload.sheds", "count", "lower", "collocated_admit"},
	// telemetry
	{"telemetry.counter_add_ns", "ns", "lower", ""},
	{"telemetry.ring_record_ns", "ns", "lower", ""},
	{"telemetry.histogram_record_ns", "ns", "lower", ""},
	{"telemetry.on_off_delta_ns", "ns", "lower", "pingpong_sync"},
	{"telemetry.events_per_op", "count", "lower", "*"},
}

// measuredOn reports whether workload w's traced run measures the metric.
func (m layerMetric) measuredOn(w string) bool {
	switch m.home {
	case "", "*":
		return true
	case "orb":
		return w != "pingpong_sync"
	default:
		return m.home == w
	}
}
