package main

// metric describes one reported number: its name and unit as printed,
// whether lower or higher is better, and — for end-to-end metrics — the
// share of the baseline median by which it may worsen before a change
// counts as a regression. BENCHMARK.json carries the same table; the
// smoke test keeps the two in step.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	// sim marks metrics that are a pure function of the seed and the
	// horizon: simulated-time latencies, counts and ratios. They repeat
	// exactly across runs, worker counts and the traced run, so -compare
	// judges them seed against seed and calls any difference a change.
	// Their bound covers only how much they move from seed to seed.
	sim bool
}

// beats reports whether x is better than y.
func (m metric) beats(x, y float64) bool {
	if m.better == "higher" {
		return x > y
	}
	return x < y
}

// e2eMetrics are printed by an untraced run. Every workload reports
// every one of them, and none of them can be zero. Host-time metrics
// other than setup_s are per-layer: on a shared host their run-to-run
// spread exceeds any useful bound (README.md).
var e2eMetrics = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "react_p50_ms", unit: "sim-ms", better: "lower", bound: 0.06, sim: true},
	{name: "react_p99_ms", unit: "sim-ms", better: "lower", bound: 0.09, sim: true},
	{name: "success_frac", unit: "ratio", better: "higher", bound: 0.03, sim: true},
	{name: "alloc_mib_per_sim_s", unit: "MiB/sim-s", better: "lower", bound: 0.17},
	{name: "heap_mib", unit: "MiB", better: "lower", bound: 0.12},
}

// layerMetrics are printed by a traced run (-trace 1). Every workload
// reports every one of them; a layer a workload does not exercise reads
// 0. README.md maps each to the end-to-end metric it should move.
var layerMetrics = []metric{
	{name: "sim_rate", unit: "sim-s/s", better: "higher"},
	{name: "cpu_ms_per_sim_s", unit: "ms/sim-s", better: "lower"},
	{name: "step_p50_us", unit: "us", better: "lower"},
	{name: "step_p99_us", unit: "us", better: "lower"},
	{name: "acoustic.capture_ns", unit: "ns", better: "lower"},
	{name: "acoustic.scanned_per_capture", unit: "count", better: "lower", sim: true},
	{name: "acoustic.cull_frac", unit: "ratio", better: "higher", sim: true},
	{name: "acoustic.ring_append_ns", unit: "ns", better: "lower"},
	{name: "acoustic.live_emissions_max", unit: "count", better: "lower", sim: true},
	{name: "dsp.transform_ns", unit: "ns", better: "lower"},
	{name: "dsp.hop_transform_ns", unit: "ns", better: "lower"},
	{name: "core.detect_ns", unit: "ns", better: "lower"},
	{name: "core.fleet_analyse_ns", unit: "ns", better: "lower"},
	{name: "core.dispatch_ns", unit: "ns", better: "lower"},
	{name: "core.app.portknock_ns", unit: "ns", better: "lower"},
	{name: "core.app.heartbeat_ns", unit: "ns", better: "lower"},
	{name: "core.app.queuemon_ns", unit: "ns", better: "lower"},
	{name: "core.app.heavyhitter_ns", unit: "ns", better: "lower"},
	{name: "core.app.portscan_ns", unit: "ns", better: "lower"},
	{name: "core.app.responder_ns", unit: "ns", better: "lower"},
	{name: "core.tap_ns", unit: "ns", better: "lower"},
	{name: "core.detections_per_window", unit: "count", better: "higher", sim: true},
	{name: "core.stream_hops", unit: "count", better: "higher", sim: true},
	{name: "netsim.events_per_step", unit: "count", better: "lower", sim: true},
	{name: "netsim.self_ns_per_event", unit: "ns", better: "lower"},
	{name: "netsim.pkt_delay_ms_p50", unit: "sim-ms", better: "lower", sim: true},
	{name: "netsim.pkt_delay_ms_p99", unit: "sim-ms", better: "lower", sim: true},
	{name: "netsim.queue_drops_per_sim_s", unit: "1/sim-s", better: "lower", sim: true},
	{name: "netsim.pool_reuse_frac", unit: "ratio", better: "higher", sim: true},
	{name: "mp.sent", unit: "count", better: "lower", sim: true},
	{name: "mp.dropped", unit: "count", better: "lower", sim: true},
	{name: "openflow.install_ns", unit: "ns", better: "lower"},
	{name: "openflow.attempts_per_rule", unit: "ratio", better: "lower", sim: true},
	{name: "openflow.failures", unit: "count", better: "lower", sim: true},
	{name: "react.events", unit: "count", better: "higher", sim: true},
	{name: "react.detect_ms_p50", unit: "sim-ms", better: "lower", sim: true},
	{name: "react.detect_ms_p99", unit: "sim-ms", better: "lower", sim: true},
	{name: "react.program_ms_p50", unit: "sim-ms", better: "lower", sim: true},
	{name: "react.program_ms_p99", unit: "sim-ms", better: "lower", sim: true},
	{name: "modem.rx_window_ns", unit: "ns", better: "lower"},
	{name: "modem.tx_send_ns", unit: "ns", better: "lower"},
	{name: "modem.fec_corrected_per_frame", unit: "count", better: "lower", sim: true},
	{name: "sketch.bytes", unit: "bytes", better: "lower", sim: true},
	{name: "runtime.mallocs_per_step", unit: "count", better: "lower"},
	{name: "runtime.gc_per_sim_s", unit: "1/sim-s", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "tone_recall", unit: "ratio", better: "higher", sim: true},
	{name: "pkts_per_s", unit: "pkt/s", better: "higher"},
	{name: "goodput_bps", unit: "bit/s", better: "higher", sim: true},
}
