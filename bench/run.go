package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"mdn/internal/core"
	"mdn/internal/telemetry"
)

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	// rate is the measured horizon in simulated seconds per second of
	// requested run length (-seconds), calibrated so an untraced run
	// measures for about the requested time on the reference host. The
	// horizon is fixed by the flags alone, never by wall time, so
	// simulated results repeat exactly.
	rate  float64
	build func(cfg runConfig, tr *tracer) (scenario, error)
}

var workloads = []workload{
	{
		name: "fleet-batch",
		why:  "400 sim-s of 32 voiced switches heard by 8 mics in batch windows: capture, FFT and the fleet fan-out dominate; netsim only runs timers",
		rate: 20,
		build: func(cfg runConfig, tr *tracer) (scenario, error) {
			return buildFleet(cfg, tr, false)
		},
	},
	{
		name: "fleet-stream",
		why:  "140 sim-s of the same world and seed on 10 ms streaming hops: ring capture, overlap STFT and serial per-mic pipes, at lower react latency",
		rate: 7,
		build: func(cfg runConfig, tr *tracer) (scenario, error) {
			return buildFleet(cfg, tr, true)
		},
	},
	{
		name:  "traffic",
		why:   "440 sim-s of 10^5 Zipf flows at 40 kpps plus a bulk flow over a 100 Mbps bottleneck: scheduler, queues, pool and sketch taps; fixed acoustics",
		rate:  22,
		build: buildTraffic,
	},
	{
		name:  "modem-sync",
		why:   "3000 sim-s of flow rules replicated over the RS-coded FSK modem: a 130-tone Goertzel bank, modem receive and FEC; no fleet, no packets",
		rate:  150,
		build: buildModem,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// runConfig fixes one run.
type runConfig struct {
	workload string
	seed     int64
	horizon  float64 // simulated seconds measured after the warm-up
	workers  int     // fleet workers
	traced   bool
	// setupReps is the least number of timed set-ups, and setupWall the
	// least wall time they add up to (up to maxSetupReps): a cheap
	// set-up is still timed over enough wall time for a steady median.
	// setup_s is their median.
	setupReps int
	setupWall time.Duration
}

const (
	defaultSetupReps = 5
	defaultSetupWall = time.Second
	maxSetupReps     = 100
)

// runOut is one run's measurements and check results.
type runOut struct {
	metrics   map[string]float64
	failures  []string
	attempted int
	failed    int
	// loopWall is the wall time spent inside the simulation over the
	// horizon (the sum of the step times).
	loopWall time.Duration
	tr       *tracer
}

func (o *runOut) check(ok bool, format string, args ...any) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *runOut) successFrac() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.attempted-o.failed) / float64(o.attempted)
}

// counters is a snapshot of the telemetry the run reports as deltas.
type counters struct {
	windows, detections, hops uint64
	scanned, culled, captures uint64
	sounderSent, sounderDrop  uint64
	dispatchSum               map[string]float64
	dispatchCount             map[string]uint64
}

func readCounters(w *world) counters {
	c := counters{
		windows:       w.ctrl.Windows,
		detections:    w.ctrl.Detections,
		scanned:       w.reg.Counter("mdn_capture_emissions_scanned_total").Value(),
		culled:        w.reg.Counter("mdn_capture_emissions_culled_total").Value(),
		captures:      w.reg.Histogram("mdn_capture_scan_emissions", nil).Count(),
		dispatchSum:   make(map[string]float64),
		dispatchCount: make(map[string]uint64),
	}
	if w.stream != nil {
		c.hops = w.stream.Hops
	}
	for _, wc := range w.ctrl.Health().Wire {
		if wc.Kind == "sounder" {
			c.sounderSent += wc.Sent
			c.sounderDrop += wc.Dropped
		}
	}
	for name, sub := range w.apps {
		h := dispatchHist(w, sub)
		c.dispatchSum[name] = h.Sum()
		c.dispatchCount[name] = h.Count()
	}
	return c
}

func dispatchHist(w *world, subscriber string) *telemetry.Histogram {
	return w.reg.Histogram(telemetry.Label("mdn_dispatch_seconds", "subscriber", subscriber), nil)
}

// runOnce builds the workload's world (timing several set-ups), runs
// the warm-up, then measures the horizon in window-sized steps.
func runOnce(cfg runConfig) (*runOut, error) {
	wl, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	steps := int(math.Round(cfg.horizon / window))
	if steps < 1 {
		steps = 1
	}
	cfg.horizon = float64(steps) * window
	out := &runOut{metrics: make(map[string]float64)}

	var sc scenario
	var setups []float64
	var setupWall time.Duration
	for rep := 0; ; rep++ {
		if sc != nil {
			sc.base().close()
			sc = nil
			runtime.GC()
		}
		var tr *tracer
		if cfg.traced {
			tr = newTracer()
		}
		t0 := time.Now()
		s, err := wl.build(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: building the world: %w", wl.name, err)
		}
		s.base().sim.RunUntil(warmupEnd)
		d := time.Since(t0)
		setups = append(setups, d.Seconds())
		setupWall += d
		sc = s
		if rep+1 >= cfg.setupReps && (setupWall >= cfg.setupWall || rep+1 >= maxSetupReps) {
			break
		}
	}
	w := sc.base()
	defer w.close()
	out.tr = w.tr

	// Self time of a step is its wall time minus its timed children: the
	// bench's top-level spans (taps, transmitter sends) plus the
	// controller's own decode and dispatch histograms — or, streaming,
	// its per-hop histogram, which contains the dispatch.
	var children []*telemetry.Histogram
	if w.stream != nil {
		children = append(children, w.reg.Histogram("mdn_stream_hop_seconds", nil))
	} else {
		children = append(children, w.reg.Histogram("mdn_controller_decode_seconds", nil))
		for _, s := range w.ctrl.Subscribers() {
			children = append(children, dispatchHist(w, s.Name))
		}
	}
	childSum := func() float64 {
		sum := 0.0
		for _, h := range children {
			sum += h.Sum()
		}
		return sum
	}

	runtime.GC()
	sc.begin()
	w.tr.reset()
	c0 := readCounters(w)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stepUS := make([]float64, steps)
	var self time.Duration
	var events int
	liveMax := 0
	stalled, deaf, negative := false, false, false
	cpu0 := cpuNow()
	for k := 1; k <= steps; k++ {
		t := warmupEnd + float64(k)*window
		var before float64
		if w.tr != nil {
			before = childSum()
		}
		windows := w.ctrl.Windows
		t0 := time.Now()
		n := w.sim.RunUntil(t)
		d := time.Since(t0)
		stepUS[k-1] = float64(d.Nanoseconds()) / 1e3
		out.loopWall += d
		events += n
		if w.tr != nil {
			// Children are nested in the step, so its self time cannot be
			// negative beyond clock-read jitter.
			stepSelf := d - w.tr.top - time.Duration((childSum()-before)*1e9)
			if stepSelf < -time.Microsecond && !negative {
				negative = true
				out.check(false, "step %d: timed children exceed the step by %v", k, -stepSelf)
			}
			self += stepSelf
			w.tr.top = 0
			w.tr.step(k, t0, d)
		}
		if live := w.room.EmissionCount(); live > liveMax {
			liveMax = live
		}
		// Liveness without allocating: every step must analyse a window
		// on at least one microphone. The health verdict is read once,
		// at the end.
		if w.ctrl.Windows == windows && !stalled {
			stalled = true
			out.check(false, "no window analysed in step %d", k)
		}
		if mon := w.ctrl.DeviceMonitor(); mon != nil && mon.MicsQuarantined() == len(w.mics) && !deaf {
			deaf = true
			out.check(false, "every microphone quarantined in step %d", k)
		}
	}
	loopCPU := cpuNow() - cpu0
	end := warmupEnd + cfg.horizon
	runtime.ReadMemStats(&ms1)
	if h := w.ctrl.Health(); h.State == core.Stalled || w.ctrl.HandlerPanics > 0 {
		out.check(false, "controller %s with %d handler panics: %v", h.StateName, w.ctrl.HandlerPanics, h.Reasons)
	}
	c1 := readCounters(w)
	runtime.GC()
	var msHeap runtime.MemStats
	runtime.ReadMemStats(&msHeap)

	sum := w.react.summarize(warmupEnd, end)
	out.attempted, out.failed = sum.attempted, sum.failed
	m := out.metrics
	m["setup_s"] = percentile(setups, 0.5)
	m["sim_rate"] = cfg.horizon / out.loopWall.Seconds()
	m["cpu_ms_per_sim_s"] = 1000 * loopCPU.Seconds() / cfg.horizon
	m["step_p50_us"] = percentile(stepUS, 0.5)
	m["step_p99_us"] = percentile(stepUS, 0.99)
	m["react_p50_ms"] = percentile(sum.total, 0.5)
	m["react_p99_ms"] = percentile(sum.total, 0.99)
	m["success_frac"] = out.successFrac()
	m["alloc_mib_per_sim_s"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / cfg.horizon
	m["heap_mib"] = float64(msHeap.HeapAlloc) / (1 << 20)

	m["react.events"] = float64(len(sum.total))
	m["react.detect_ms_p50"] = percentile(sum.detect, 0.5)
	m["react.detect_ms_p99"] = percentile(sum.detect, 0.99)
	m["react.program_ms_p50"] = percentile(sum.program, 0.5)
	m["react.program_ms_p99"] = percentile(sum.program, 0.99)
	m["netsim.events_per_step"] = float64(events) / float64(steps)
	m["runtime.mallocs_per_step"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(steps)
	m["runtime.gc_per_sim_s"] = float64(ms1.NumGC-ms0.NumGC) / cfg.horizon
	m["acoustic.live_emissions_max"] = float64(liveMax)
	if !cfg.traced && c1.scanned > c0.scanned {
		// The shadow replay re-captures, so these come from untraced runs.
		m["acoustic.scanned_per_capture"] = float64(c1.scanned-c0.scanned) / float64(c1.captures-c0.captures)
		m["acoustic.cull_frac"] = float64(c1.culled-c0.culled) / float64(c1.scanned-c0.scanned)
	}
	windows := c1.windows - c0.windows
	if windows > 0 {
		m["core.detections_per_window"] = float64(c1.detections-c0.detections) / float64(windows)
	}
	m["core.stream_hops"] = float64(c1.hops - c0.hops)
	m["mp.sent"] = float64(c1.sounderSent - c0.sounderSent)
	m["mp.dropped"] = float64(c1.sounderDrop - c0.sounderDrop)

	// Dispatch cost per call of each application's subscriber, and the
	// applications' total per dispatched window (or hop).
	names := make([]string, 0, len(w.apps))
	for name := range w.apps {
		names = append(names, name)
	}
	sort.Strings(names)
	dispatched := 0.0
	for _, name := range names {
		ds := c1.dispatchSum[name] - c0.dispatchSum[name]
		if n := c1.dispatchCount[name] - c0.dispatchCount[name]; n > 0 {
			m[name] = 1e9 * ds / float64(n)
		}
		dispatched += ds
	}
	if windows > 0 {
		m["core.dispatch_ns"] = 1e9 * dispatched / float64(windows)
	}
	if tr := w.tr; tr != nil {
		for name, k := range map[string]spanKind{
			"acoustic.capture_ns":     spanCapture,
			"acoustic.ring_append_ns": spanRingAppend,
			"dsp.transform_ns":        spanTransform,
			"dsp.hop_transform_ns":    spanHopTransform,
			"core.detect_ns":          spanDetect,
			"core.fleet_analyse_ns":   spanFleetAnalyse,
			"core.tap_ns":             spanTap,
			"openflow.install_ns":     spanInstall,
			"modem.tx_send_ns":        spanTxSend,
		} {
			m[name] = tr.meanNS(k)
		}
		if events > 0 {
			m["netsim.self_ns_per_event"] = float64(self.Nanoseconds()) / float64(events)
		}
	}

	sc.finish(end, out)
	out.check(len(w.react.anomalies) == 0, "react attribution anomalies: %v", w.react.anomalies)
	out.check(out.attempted > 0 && len(sum.total) > 0,
		"no completed react events (%d attempted)", out.attempted)
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.check(false, "metric %s is not finite", name)
			m[name] = 0
		}
	}
	runtime.KeepAlive(sc)
	return out, nil
}
