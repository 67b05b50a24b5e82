package core

import (
	"fmt"
	"math"

	"mdn/internal/netsim"
	"mdn/internal/telemetry"
)

// StreamController is the controller's low-latency detection path: its
// fleet (see Fleet) advancing the analysis window by a hop — a fraction
// of the window — instead of a whole window at a time, so a watched
// tone is detected within one hop of its onset rather than at the
// close of the window it lands in. Both teleorchestra papers (arXiv
// 1808.09399, 1809.07864) argue SDN+audio control loops live or die
// on exactly this delay. At hop == window the stream runs the batch
// code path and is bit-exact with it; at hop < window equivalence is
// behavioural (same tones detected, sooner).
//
// On top of the fleet the stream runs an EdgeDedup over the
// per-frequency peak of the active microphones' pre-threshold
// amplitudes, so a tone straddling any number of hop windows is one
// onset, reported through OnOnset and the
// mdn_stream_detect_latency_seconds histogram (sim-time latency from
// the emission's arrival at the loudest microphone to the firing hop
// close).
type StreamController struct {
	// OnOnset, when set, receives each deduplicated tone onset: the
	// first hop window in which the frequency's amplitude reached the
	// detection threshold, after silence. Detection.Time is the hop
	// close (detection time, not window start). It is called on the
	// simulation goroutine, outside the supervision barrier.
	OnOnset func(Detection)

	ctrl   *Controller
	hop    float64 // hop duration, seconds
	window float64 // analysis window, seconds (ctrl.Window at start)

	peak    []float64 // per-frequency max amplitude across active mics, per hop
	peakMic []int     // the microphone holding each peak (lowest index on ties)
	dedup   *EdgeDedup
	ticker  *netsim.Ticker

	// Hops counts processed hop steps; Onsets counts deduplicated tone
	// onsets; CaptureErrors counts hops abandoned because the capture
	// span had been compacted away (acoustic.ErrCompacted).
	Hops          uint64
	Onsets        uint64
	CaptureErrors uint64

	tm streamMetrics
}

// StartStream begins streaming analysis at time at with the given hop,
// replacing any running batch poll loop. The hop must subdivide the
// controller's Window into an integer number of integer-sample hops
// (e.g. 10 ms hops of a 50 ms window at 44.1 kHz); StartStream panics
// otherwise, because a misaligned hop is a deployment wiring error.
// hop == Window is valid and runs the batch code path exactly.
//
// Subscribers registered on the controller receive one batch per hop
// (each covering the trailing full window) once the first window has
// filled; the controller's counters and Health reflect the streamed
// windows. Call Stop on the returned StreamController (or on the
// controller) to halt.
func (c *Controller) StartStream(at, hop float64) *StreamController {
	rate := c.mic.Room().SampleRate
	if err := CheckStreamHop(c.Window, rate, hop); err != nil {
		panic(err.Error())
	}
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
	if c.stream != nil {
		c.stream.Stop()
	}
	c.fleet.setHop(c.Window, int(math.Round(c.Window*rate)), int(math.Round(hop*rate)))
	s := &StreamController{
		ctrl:   c,
		hop:    hop,
		window: c.Window,
		dedup:  NewEdgeDedup(0, c.Detector.MinAmplitude),
	}
	if c.tm.reg != nil {
		s.Instrument(c.tm.reg)
	}
	c.stream = s
	c.started = true
	c.startAt = at
	c.health.lastWindowEnd = at
	s.ticker = c.sim.Every(at+hop, hop, func(now float64) {
		s.step(now-s.hop, now)
	})
	return s
}

// CheckStreamHop reports whether hop is a valid streaming hop for the
// given analysis window and sample rate: positive, a whole number of
// samples, and an exact subdivision of the window. Configuration
// surfaces (scenario files, CLI flags) call it to reject a bad hop up
// front; StartStream enforces the same rule by panicking. At 44.1 kHz
// with the default 50 ms window (2205 samples) the usable hops are the
// divisors of 2205 samples — e.g. 10 ms (441), 1/3 window (735), or
// the window itself.
func CheckStreamHop(window, sampleRate, hop float64) error {
	windowN := int(math.Round(window * sampleRate))
	hopN := int(math.Round(hop * sampleRate))
	if hopN <= 0 || windowN <= 0 || windowN%hopN != 0 ||
		math.Abs(float64(hopN)-float64(hop*sampleRate)) > 1e-6 {
		return fmt.Errorf(
			"core: stream hop %g s is not an integer-sample divisor of window %g s at %g Hz",
			hop, window, sampleRate)
	}
	return nil
}

// step advances the fleet by one hop — capture, transform, detect,
// merge — then folds the onset dedup and dispatches the window. It
// runs on the simulation goroutine once per hop.
func (s *StreamController) step(from, to float64) {
	sp := telemetry.StartSpan(s.tm.hopWall, s.tm.wall)
	s.Hops++
	s.tm.hops.Inc()
	f := s.ctrl.fleet
	dets, ok, err := f.analyse(from, to)
	if err != nil {
		// The hop precedes the compaction horizon. The fleet has reset its
		// lanes, so the stream re-primes at the live edge instead of
		// analysing a window with a hole in it.
		s.CaptureErrors++
		s.tm.captureErrs.Inc()
		s.ctrl.Errors.Record(to, "stream", err)
		sp.End()
		return
	}
	if !ok {
		// Warm-up: no lane has filled a window yet (hop < window only; at
		// hop == window every hop completes a window).
		sp.End()
		return
	}
	watch := f.watch()
	s.foldPeaks(f, len(watch))
	// The dedup's attack level carries this window's relative floor —
	// identical leakage rejection to the detection filter, so an onset
	// can only fire for a frequency the filter would also report.
	maxPeak := 0.0
	for _, a := range s.peak {
		if a > maxPeak {
			maxPeak = a
		}
	}
	s.dedup.Step(s.peak, s.ctrl.Detector.RelativeFloor*maxPeak, func(i int) { s.onset(to, watch[i], i) })
	s.ctrl.noteDetections(to-s.window, to, dets)
	sp.End()
}

// foldPeaks takes the per-frequency maximum of the active microphones'
// amplitudes over the window just analysed, and which microphone holds
// it. The vectors grow with the live watch list.
func (s *StreamController) foldPeaks(f *Fleet, nf int) {
	if len(s.peak) < nf {
		s.peak = append(s.peak, make([]float64, nf-len(s.peak))...)
		s.peakMic = append(s.peakMic, make([]int, nf-len(s.peakMic))...)
		s.dedup.active = append(s.dedup.active, make([]bool, nf-len(s.dedup.active))...)
	}
	for j := range s.peak {
		s.peak[j] = 0
	}
	for _, i := range f.active {
		for j, a := range f.amps[i] {
			if a > s.peak[j] {
				s.peak[j] = a
				s.peakMic[j] = i
			}
		}
	}
}

// onset handles one deduplicated rising edge of frequency freq (watch
// index i) at hop close time at: counters, the sim-time
// sound-to-detection latency histogram (ground truth from the emission
// schedule via LatestArrivalBefore, at the microphone that heard the
// tone loudest), and the OnOnset callback.
func (s *StreamController) onset(at, freq float64, i int) {
	s.Onsets++
	s.tm.onsets.Inc()
	// Latency attribution: the rising edge was produced by the window
	// [at-window, at), so only an emission arriving inside it (plus one
	// hop of slack) can be its cause. An onset with no such arrival —
	// background noise crossing a watched frequency, or an edge
	// re-armed long after the tone began — is counted but contributes
	// no latency observation, because pairing it with a stale emission
	// would poison the percentiles.
	mic := s.ctrl.fleet.mics[s.peakMic[i]]
	if arr, ok := mic.LatestArrivalBefore(freq, s.ctrl.Detector.ToleranceHz, at); ok && at-arr <= s.window+s.hop {
		s.tm.detectLatency.Observe(at - arr)
	}
	if s.OnOnset != nil {
		s.OnOnset(Detection{Time: at, Frequency: freq, Amplitude: s.peak[i]})
	}
}

// Stop halts the streaming pipeline.
func (s *StreamController) Stop() {
	if s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
	}
	if s.ctrl.stream == s {
		s.ctrl.stream = nil
		s.ctrl.started = false
		s.ctrl.fleet.setHop(0, 0, 0)
	}
}

// Hop returns the stream's hop in seconds.
func (s *StreamController) Hop() float64 { return s.hop }

// streamMetrics is the stream's telemetry handle set; nil (and no-op)
// until Instrument.
type streamMetrics struct {
	wall          telemetry.TimeSource
	hops          *telemetry.Counter
	onsets        *telemetry.Counter
	captureErrs   *telemetry.Counter
	detectLatency *telemetry.Histogram
	hopWall       *telemetry.Histogram
}

// Instrument registers the stream's telemetry with reg: hop/onset/
// capture-error counters, the sim-time sound-to-detection latency
// histogram, and the wall-time per-hop cost histogram. StartStream
// calls it automatically when the controller is instrumented; call it
// directly otherwise.
func (s *StreamController) Instrument(reg *telemetry.Registry) {
	s.tm = streamMetrics{
		wall:          telemetry.Wall(),
		hops:          reg.Counter(metricStreamHops),
		onsets:        reg.Counter(metricStreamOnsets),
		captureErrs:   reg.Counter(metricStreamCaptureErrors),
		detectLatency: reg.Histogram(metricStreamDetectLatency, telemetry.StreamLatencyBuckets),
		hopWall:       reg.Histogram(metricStreamHopWall, telemetry.StreamLatencyBuckets),
	}
}

// DetectLatency returns the sim-time sound-to-detection latency
// histogram (nil when uninstrumented) — the p50/p99 source for the
// latency budget.
func (s *StreamController) DetectLatency() *telemetry.Histogram {
	return s.tm.detectLatency
}
