package core

import (
	"mdn/internal/telemetry"
)

// controllerMetrics is the controller's telemetry handle set. All
// fields are nil until Instrument is called; every update is nil-safe,
// so an uninstrumented controller pays one pointer test per counter.
type controllerMetrics struct {
	reg         *telemetry.Registry
	wall        telemetry.TimeSource
	windows     *telemetry.Counter
	detections  *telemetry.Counter
	panics      *telemetry.Counter
	quarantines *telemetry.Counter
	decode      *telemetry.Histogram
}

// Metric names the controller registers. Histograms use
// telemetry.DefaultLatencyBuckets (10 µs – 10 s).
//
//	mdn_controller_windows_total      analysed capture windows
//	mdn_controller_detections_total   raw per-window tone detections
//	mdn_controller_handler_panics_total recovered subscriber panics
//	mdn_controller_quarantines_total  circuit-breaker trips
//	mdn_controller_subscribers        registered handlers (gauge)
//	mdn_controller_last_window_end_seconds latest window close (virtual)
//	mdn_controller_decode_seconds     capture+detect wall time per window
//	mdn_dispatch_seconds{subscriber}  per-subscriber handler wall time
//	mdn_wire_*_total{kind,name}       sent/dropped/corrupted per wire
const (
	metricWindows       = "mdn_controller_windows_total"
	metricDetections    = "mdn_controller_detections_total"
	metricPanics        = "mdn_controller_handler_panics_total"
	metricQuarantines   = "mdn_controller_quarantines_total"
	metricSubscribers   = "mdn_controller_subscribers"
	metricLastWindowEnd = "mdn_controller_last_window_end_seconds"
	metricDecode        = "mdn_controller_decode_seconds"
	metricDispatch      = "mdn_dispatch_seconds"
	metricWireSent      = "mdn_wire_sent_total"
	metricWireDropped   = "mdn_wire_dropped_total"
	metricWireCorrupted = "mdn_wire_corrupted_total"
)

// Instrument registers the controller's counters and latency
// histograms with reg and begins recording: window and detection
// counts, decode wall time, per-subscriber dispatch wall time,
// recovered panics and quarantines, and the fault counters of every
// wire registered before or after the call. Instrument may be called
// before or after Start; call it once per controller. A nil registry
// leaves the controller unmetered.
func (c *Controller) Instrument(reg *telemetry.Registry) {
	c.tm = controllerMetrics{
		reg:         reg,
		wall:        telemetry.Wall(),
		windows:     reg.Counter(metricWindows),
		detections:  reg.Counter(metricDetections),
		panics:      reg.Counter(metricPanics),
		quarantines: reg.Counter(metricQuarantines),
		decode:      reg.Histogram(metricDecode, telemetry.DefaultLatencyBuckets),
	}
	reg.Func(metricSubscribers, func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.subs))
	})
	reg.Func(metricLastWindowEnd, func() float64 { return c.health.lastWindowEnd })
	c.mu.Lock()
	for _, s := range c.subs {
		c.instrumentSub(s)
	}
	c.mu.Unlock()
	for _, w := range c.health.wires {
		c.instrumentWire(w)
	}
}

// instrumentSub attaches the per-subscriber dispatch histogram. The
// caller holds c.mu (or is still single-threaded in Instrument).
func (c *Controller) instrumentSub(s *subscriber) {
	if c.tm.reg == nil || s.dispatch != nil {
		return
	}
	s.dispatch = c.tm.reg.Histogram(
		telemetry.Label(metricDispatch, "subscriber", s.name),
		telemetry.DefaultLatencyBuckets)
}

// instrumentWire exposes one registered wire's fault counters as
// func-backed gauges, reading the live counters at dump time — the
// hot path is untouched.
func (c *Controller) instrumentWire(w wireRef) {
	reg := c.tm.reg
	if reg == nil {
		return
	}
	reg.Func(telemetry.Label(metricWireSent, "kind", w.kind, "name", w.name),
		func() float64 { s, _, _ := w.read(); return float64(s) })
	reg.Func(telemetry.Label(metricWireDropped, "kind", w.kind, "name", w.name),
		func() float64 { _, d, _ := w.read(); return float64(d) })
	reg.Func(telemetry.Label(metricWireCorrupted, "kind", w.kind, "name", w.name),
		func() float64 { _, _, k := w.read(); return float64(k) })
}

// Metrics names for application-side series. Each application's
// Instrument method registers under its app/switch label pair:
//
//	mdn_app_onsets_total{app,switch}          confirmed tone onsets
//	mdn_app_events_total{app,switch}          reports/alerts raised (incl. evicted)
//	mdn_app_history_dropped_total{app,switch} history entries evicted by the bound
//	mdn_voice_emitted_total{switch} / mdn_voice_suppressed_total{switch}
//
// Fleet metric names:
//
//	mdn_fleet_window_seconds      per-window fan-out wall time (all mics)
//	mdn_fleet_stale_windows_total windows re-run after a mid-window watch edit
const (
	metricFleetWindow = "mdn_fleet_window_seconds"
	metricFleetStale  = "mdn_fleet_stale_windows_total"
)

// Streaming-path metric names (see StreamController.Instrument).
// Histograms use telemetry.StreamLatencyBuckets — log-spaced from 1 µs
// so sub-millisecond hop latencies resolve distinct p50/p99.
//
//	mdn_stream_hops_total              processed hop steps
//	mdn_stream_onsets_total            deduplicated tone onsets
//	mdn_stream_capture_errors_total    hops lost to the compaction horizon
//	mdn_stream_detect_latency_seconds  sound arrival → detection (sim time)
//	mdn_stream_hop_seconds             per-hop pipeline wall time
const (
	metricStreamHops          = "mdn_stream_hops_total"
	metricStreamOnsets        = "mdn_stream_onsets_total"
	metricStreamCaptureErrors = "mdn_stream_capture_errors_total"
	metricStreamDetectLatency = "mdn_stream_detect_latency_seconds"
	metricStreamHopWall       = "mdn_stream_hop_seconds"
)

// Device-health metric names (see DeviceMonitor.Instrument). The state
// gauge encodes DeviceState numerically (0 healthy, 1 drifting, 2 deaf,
// 3 detuned, 4 silent); the rest are aggregate event counters.
//
//	mdn_device_state{kind,name}        current DeviceState per device
//	mdn_device_noise_floor{mic}        EWMA bin-noise estimate per microphone
//	mdn_device_transitions_total       device state transitions
//	mdn_device_recalibrations_total    detection-threshold recalibrations
//	mdn_device_quarantines_total       microphones dropped from the fan-out
//	mdn_device_rejoins_total           quarantined microphones readmitted
//	mdn_device_rekeys_total            detuned speakers re-keyed
const (
	metricDeviceState          = "mdn_device_state"
	metricDeviceNoiseFloor     = "mdn_device_noise_floor"
	metricDeviceTransitions    = "mdn_device_transitions_total"
	metricDeviceRecalibrations = "mdn_device_recalibrations_total"
	metricDeviceQuarantines    = "mdn_device_quarantines_total"
	metricDeviceRejoins        = "mdn_device_rejoins_total"
	metricDeviceRekeys         = "mdn_device_rekeys_total"
)

const (
	metricAppOnsets         = "mdn_app_onsets_total"
	metricAppEvents         = "mdn_app_events_total"
	metricAppHistoryDropped = "mdn_app_history_dropped_total"
	metricVoiceEmitted      = "mdn_voice_emitted_total"
	metricVoiceSuppressed   = "mdn_voice_suppressed_total"
)

// Sketch-analytics metric names. The update/bytes series appear only
// for sketch-backed counters (exact mode is the historical baseline
// and stays unmetered); the error histogram is observed wherever an
// exact oracle runs alongside a sketch (the traffic sweep).
//
//	mdn_sketch_updates_total{app,switch} weighted sketch updates
//	mdn_sketch_bytes{app,switch}         resident sketch state (gauge)
//	mdn_sketch_estimate_error            relative estimate error vs oracle
//	mdn_traffic_packets_per_second       traffic-engine forwarding rate (wall)
//	mdn_traffic_events_per_second        scheduler event rate (wall)
const (
	MetricSketchUpdates = "mdn_sketch_updates_total"
	MetricSketchBytes   = "mdn_sketch_bytes"
	MetricSketchError   = "mdn_sketch_estimate_error"
	MetricTrafficPPS    = "mdn_traffic_packets_per_second"
	MetricTrafficEPS    = "mdn_traffic_events_per_second"
)

// SketchErrorBuckets are the relative-error bounds for the
// mdn_sketch_estimate_error histogram.
var SketchErrorBuckets = []float64{0, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.5, 1}

// instrumentSketchFlow exposes a sketch-backed flow counter's update
// weight and resident bytes. Exact counters register nothing.
func instrumentSketchFlow(reg *telemetry.Registry, app, switchName string, c FlowCounter) {
	sk, ok := c.(*SketchFlowCounter)
	if !ok {
		return
	}
	reg.Func(appLabels(MetricSketchUpdates, app, switchName),
		func() float64 { return float64(sk.Updates()) })
	reg.Func(appLabels(MetricSketchBytes, app, switchName),
		func() float64 { return float64(sk.Bytes()) })
}

// instrumentSketchDistinct is instrumentSketchFlow for distinct
// counters.
func instrumentSketchDistinct(reg *telemetry.Registry, app, switchName string, c DistinctCounter) {
	sk, ok := c.(*SketchDistinctCounter)
	if !ok {
		return
	}
	reg.Func(appLabels(MetricSketchUpdates, app, switchName),
		func() float64 { return float64(sk.Updates()) })
	reg.Func(appLabels(MetricSketchBytes, app, switchName),
		func() float64 { return float64(sk.Bytes()) })
}

// appLabels renders the standard app/switch label pair.
func appLabels(metric, app, switchName string) string {
	return telemetry.Label(metric, "app", app, "switch", switchName)
}
