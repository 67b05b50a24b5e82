package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"mdn/internal/acoustic"
	"mdn/internal/audio"
	"mdn/internal/core"
	"mdn/internal/dsp"
)

// spanKind names one span the benchmark records. Wall spans wrap calls
// into a layer's public functions; the react spans are simulated-time
// stages of one react event.
type spanKind uint8

const (
	spanStep spanKind = iota
	spanCapture
	spanTransform
	spanDetect
	spanFleetAnalyse
	spanRingAppend
	spanHopTransform
	spanTap
	spanInstall
	spanTxSend
	spanReactDetect
	spanReactProgram
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"netsim.step", "acoustic.capture", "dsp.transform", "core.detect",
	"core.fleet_analyse", "acoustic.ring_append", "dsp.hop_transform",
	"core.tap", "openflow.install", "modem.tx_send",
	"react.detect", "react.program",
}

// span is one recorded interval: wall spans in microseconds since the
// tracer started, react spans in simulated microseconds.
type span struct {
	kind  spanKind
	id    int64 // react event ID; step index for steps; -1 otherwise
	start float64
	dur   float64
}

// traceRingSize bounds the spans kept for the trace file; the per-kind
// totals count every span.
const traceRingSize = 1 << 16

// tracer records spans into a bounded ring and keeps per-kind totals.
// A nil tracer records nothing and reads no clock, which is how the
// untraced run stays free of tracing cost.
type tracer struct {
	base   time.Time
	ring   []span
	next   int
	pushed int64
	count  [numSpanKinds]int64
	total  [numSpanKinds]time.Duration
	// top accumulates the wall time of spans that are direct children
	// of the running step, for the step's self-time accounting.
	top time.Duration
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), ring: make([]span, 0, traceRingSize)}
}

// start reads the clock for a span about to begin (zero when nil).
func (t *tracer) start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end records a wall span of kind k that began at t0. top marks a span
// that is not nested in another timed span of the same step.
func (t *tracer) end(k spanKind, t0 time.Time, id int64, top bool) {
	if t == nil {
		return
	}
	d := time.Since(t0)
	t.count[k]++
	t.total[k] += d
	if top {
		t.top += d
	}
	t.push(span{kind: k, id: id, start: micros(t0.Sub(t.base)), dur: micros(d)})
}

// step records one simulation step of the horizon.
func (t *tracer) step(k int, t0 time.Time, d time.Duration) {
	t.count[spanStep]++
	t.total[spanStep] += d
	t.push(span{kind: spanStep, id: int64(k), start: micros(t0.Sub(t.base)), dur: micros(d)})
}

// reset clears the per-kind totals at the start of the horizon, so
// means cover the measured steps only; the ring keeps its spans.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.count = [numSpanKinds]int64{}
	t.total = [numSpanKinds]time.Duration{}
	t.top = 0
}

// simSpan records a simulated-time span [from, to] in seconds.
func (t *tracer) simSpan(k spanKind, id int64, from, to float64) {
	if t == nil {
		return
	}
	t.count[k]++
	t.push(span{kind: k, id: id, start: from * 1e6, dur: (to - from) * 1e6})
}

func (t *tracer) push(s span) {
	t.pushed++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
		return
	}
	t.ring[t.next] = s
	t.next = (t.next + 1) % len(t.ring)
}

// meanNS returns the mean wall duration of spans of kind k in
// nanoseconds (0 when none were recorded).
func (t *tracer) meanNS(k spanKind) float64 {
	if t == nil || t.count[k] == 0 {
		return 0
	}
	return float64(t.total[k].Nanoseconds()) / float64(t.count[k])
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// chromeEvent is one Chrome trace-event record ("X" complete events
// and "M" metadata), readable by Perfetto and chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the ring's spans as Chrome trace-event JSON, with
// the per-layer summary under otherData. Wall spans are process 1 and
// simulated-time react stages process 2 (their timestamps are
// simulated microseconds).
func (t *tracer) writeChrome(path, workload string, seed int64, layers map[string]float64) error {
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "wall clock"}},
		{Name: "process_name", Ph: "M", Pid: 2, Args: map[string]any{"name": "simulated time (react stages)"}},
	}
	n := len(t.ring)
	for i := 0; i < n; i++ {
		s := t.ring[(t.next+i)%n]
		ev := chromeEvent{Name: spanNames[s.kind], Ph: "X", Ts: s.start, Dur: s.dur, Pid: 1, Tid: 1, Cat: "wall"}
		if s.kind == spanReactDetect || s.kind == spanReactProgram {
			ev.Pid, ev.Cat = 2, "sim"
			ev.Tid = int(s.id%8) + 1
		}
		if s.id >= 0 {
			ev.Args = map[string]any{"id": s.id}
		}
		events = append(events, ev)
	}
	doc := struct {
		TraceEvents     []chromeEvent  `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"workload": workload, "seed": seed, "spans_dropped": t.dropped(), "layers": layers,
		},
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return f.Close()
}

// dropped is how many recorded spans the bounded ring let go.
func (t *tracer) dropped() int64 { return t.pushed - int64(len(t.ring)) }

// shadowEvery samples the full-window replay: it re-runs every 4th
// analysed window, which keeps a traced fleet-batch run within twice
// the untraced run's time while per-call means still cover thousands
// of windows.
const shadowEvery = 4

// shadow re-runs the layers of the window just analysed on state the
// benchmark owns, so their cost is timed without touching the program.
// Traced runs register it as the controller's last window subscriber.
// Capture is a pure function of the emission schedule, so re-capturing
// changes no simulated outcome; it does bump the room's capture
// counters, which is why counter metrics come from the untraced run.
type shadow struct {
	tr     *tracer
	window float64
	mics   []*acoustic.Microphone
	bufs   []*audio.Buffer
	det    *core.Detector
	fft    bool
	gplan  *dsp.GoertzelPlan
	mags   []float64
	scr    dsp.FFTScratch

	// fleet replays the fan-out on the batch fleet workload.
	fleet *core.Fleet
	// rings and stfts replay the streaming capture and transform, one
	// per microphone, every hop on the streaming workload; there a
	// window is a window's worth of hops.
	rings         []*acoustic.CaptureRing
	stfts         []*dsp.OverlapSTFT
	hop           float64
	hopsPerWindow int
	hops          int
	windows       int
}

func newShadow(w *world, hop float64, fleetWorkers int) *shadow {
	d := w.ctrl.Detector
	s := &shadow{
		tr:     w.tr,
		window: w.ctrl.Window,
		mics:   w.mics,
		bufs:   make([]*audio.Buffer, len(w.mics)),
		det:    d.Clone(),
		fft:    d.Method == core.MethodFFT,
	}
	if !s.fft {
		s.gplan = dsp.NewGoertzelPlan(d.Watch(), sampleRate)
	}
	windowN := int(math.Round(s.window * sampleRate))
	switch {
	case hop > 0:
		s.hop = hop
		s.hopsPerWindow = int(math.Round(s.window / hop))
		for _, m := range w.mics {
			s.rings = append(s.rings, acoustic.NewCaptureRing(m, windowN))
			s.stfts = append(s.stfts, dsp.NewOverlapSTFT(windowN))
		}
	case fleetWorkers > 0:
		s.fleet = core.NewFleet(d, fleetWorkers)
		for _, m := range w.mics {
			s.fleet.AddMicrophone(m)
		}
		w.closers = append(w.closers, s.fleet.Close)
	}
	return s
}

// replay is the window subscriber: from is the analysed window's start.
func (s *shadow) replay(from float64, _ []core.Detection) {
	to := from + s.window
	if s.rings != nil {
		for i, r := range s.rings {
			t0 := s.tr.start()
			if err := r.Append(to-s.hop, to); err != nil {
				r.Reset()
				s.stfts[i].Reset()
				continue
			}
			s.tr.end(spanRingAppend, t0, -1, false)
			t0 = s.tr.start()
			st := s.stfts[i]
			st.Append(r.LastHop())
			if st.Full() {
				st.Spectrum(dsp.Hann)
			}
			s.tr.end(spanHopTransform, t0, -1, false)
		}
		s.hops++
		if s.hops%s.hopsPerWindow != 0 {
			return
		}
	}
	s.windows++
	if s.windows%shadowEvery != 0 {
		return
	}
	for i, m := range s.mics {
		t0 := s.tr.start()
		s.bufs[i] = m.CaptureInto(s.bufs[i], from, to)
		s.tr.end(spanCapture, t0, -1, false)
		t0 = s.tr.start()
		s.transform(s.bufs[i])
		s.tr.end(spanTransform, t0, -1, false)
		t0 = s.tr.start()
		s.det.Detect(s.bufs[i], from)
		s.tr.end(spanDetect, t0, -1, false)
	}
	if s.fleet != nil {
		t0 := s.tr.start()
		s.fleet.Analyse(from, to)
		s.tr.end(spanFleetAnalyse, t0, -1, false)
	}
}

// transform runs the detector's transform alone: one windowed FFT, or
// the Goertzel bank over the watch list.
func (s *shadow) transform(buf *audio.Buffer) {
	if s.fft {
		plan := dsp.PlanFFT(dsp.NextPowerOfTwo(buf.Len()))
		s.mags = plan.WindowedSpectrumScratch(s.mags, buf.Samples, dsp.Hann, &s.scr)
		return
	}
	s.mags = s.gplan.MagnitudesInto(s.mags, buf.Samples)
}
