package main

import (
	"fmt"
	"math/rand"

	"mdn/internal/acoustic"
	"mdn/internal/core"
	"mdn/internal/netsim"
	"mdn/internal/telemetry"
)

// World constants shared by every workload.
const (
	sampleRate = 44100.0
	// window is the controller window and the benchmark's step: every
	// step advances the simulation by one window.
	window = core.DefaultWindow
	// warmupEnd is where the measured horizon starts: a 2 s simulated
	// warm-up, plus half a window so every step ends half a window after
	// a controller tick and holds exactly one analysed window.
	warmupEnd = 2 + window/2
	// retention bounds the room's emission history, as deployments do.
	retention = 2.0
	micNoise  = 0.0005
	piDelay   = 0.002
	// channelLatency is the one-way OpenFlow control latency of every
	// responder channel.
	channelLatency = 0.005
	// toneDuration is every voice's tone length (default 65 ms). A tone
	// of two full windows clears the floor in two consecutive windows
	// wherever it sounds: a 65 ms tone can leave one of its windows a
	// Hann-weighted 15 % of it, which at the switch farthest from a
	// microphone, or beside louder tones in the same window, loses the
	// apps' two-window onset confirmation — knocks and scan probes go
	// unheard.
	toneDuration = 0.1
)

// scenario is one built workload world.
type scenario interface {
	base() *world
	// begin marks the start of the measured horizon.
	begin()
	// finish adds the workload's own metrics and correctness checks once
	// the horizon has ended at simulated time end.
	finish(end float64, out *runOut)
}

// world is the state every workload shares: the simulator, the room,
// the controller and its telemetry, the react-event log, and — in a
// traced run — the tracer.
type world struct {
	sim    *netsim.Sim
	room   *acoustic.Room
	mics   []*acoustic.Microphone
	ctrl   *core.Controller
	reg    *telemetry.Registry
	stream *core.StreamController // nil on the batch path
	tr     *tracer                // nil in an untraced run
	react  reactLog
	// apps maps a per-layer dispatch metric (core.app.<name>_ns,
	// modem.rx_window_ns) to the controller subscriber it times.
	apps    map[string]string
	closers []func()
}

func newWorld(seed int64, tr *tracer) world {
	room := acoustic.NewRoom(sampleRate, seed)
	room.CullThreshold = acoustic.CullAuto
	reg := telemetry.New()
	room.Instrument(reg)
	return world{
		sim:   netsim.NewSim(),
		room:  room,
		reg:   reg,
		tr:    tr,
		react: reactLog{tr: tr},
		apps:  make(map[string]string),
	}
}

func (w *world) base() *world { return w }

// newController builds the instrumented controller on mic.
func (w *world) newController(mic *acoustic.Microphone, det *core.Detector) {
	w.ctrl = core.NewController(w.sim, mic, det)
	w.ctrl.Instrument(w.reg)
	w.ctrl.Retention = retention
}

// subscribe registers a named window subscriber; metric, when set, is
// the per-layer metric its dispatch time reports under.
func (w *world) subscribe(name, metric string, fn func(float64, []core.Detection)) {
	w.ctrl.SubscribeWindowsNamed(name, fn)
	if metric != "" {
		w.apps[metric] = name
	}
}

// adoptLastSubscriber times the subscriber an application registered
// itself (interval apps subscribe inside their own Start).
func (w *world) adoptLastSubscriber(metric string) {
	subs := w.ctrl.Subscribers()
	w.apps[metric] = subs[len(subs)-1].Name
}

// start registers the shadow replay last (traced runs only) and starts
// the controller on the batch path, or on the streaming path when hop
// is positive.
func (w *world) start(hop float64, shadowFleetWorkers int) {
	if w.tr != nil {
		sh := newShadow(w, hop, shadowFleetWorkers)
		w.subscribe("shadow", "", sh.replay)
	}
	if hop > 0 {
		w.stream = w.ctrl.StartStream(0, hop)
		return
	}
	w.ctrl.Start(0)
}

func (w *world) close() {
	for _, c := range w.closers {
		c()
	}
	w.closers = nil
}

// subSeed derives the k-th independent stream seed from the workload
// seed (splitmix64), so every input — schedules, flows, fault streams,
// payloads — is a function of the one seed.
func subSeed(seed int64, k uint64) int64 {
	x := uint64(seed) + k*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

func newRand(seed int64, k uint64) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, k)))
}

// reactEvent is one event-to-rule measurement, in simulated seconds.
// decided and done stay negative until the responder decides and the
// rule is confirmed installed.
type reactEvent struct {
	at, deadline  float64
	decided, done float64
	// counted is false for events whose input never reached the system
	// (an injected fault dropped it); they are kept for attribution but
	// neither attempted nor failed.
	counted bool
}

// reactLog collects react events and the anomalies found while
// attributing decisions and results to them.
type reactLog struct {
	events    []reactEvent
	anomalies []string
	tr        *tracer
}

func (l *reactLog) add(at, deadline float64, counted bool) int {
	l.events = append(l.events, reactEvent{at: at, deadline: deadline, decided: -1, done: -1, counted: counted})
	return len(l.events) - 1
}

// decide marks event id decided at now; it reports false (and logs an
// anomaly) when the event was already decided.
func (l *reactLog) decide(id int, now float64) bool {
	e := &l.events[id]
	if e.decided >= 0 {
		l.anomaly("event %d at %.3f s decided twice", id, e.at)
		return false
	}
	e.decided = now
	return true
}

// complete marks event id's rule installed at now. The first
// confirmation counts; later ones (a re-sent duplicate) are ignored.
func (l *reactLog) complete(id int, now float64) {
	e := &l.events[id]
	if e.done >= 0 {
		return
	}
	if e.decided < 0 {
		l.anomaly("event %d at %.3f s completed before any decision", id, e.at)
		return
	}
	e.done = now
	l.tr.simSpan(spanReactDetect, int64(id), e.at, e.decided)
	l.tr.simSpan(spanReactProgram, int64(id), e.decided, e.done)
}

func (l *reactLog) anomaly(format string, args ...any) {
	if len(l.anomalies) < 16 {
		l.anomalies = append(l.anomalies, fmt.Sprintf(format, args...))
	} else if len(l.anomalies) == 16 {
		l.anomalies = append(l.anomalies, "further anomalies omitted")
	}
}

// reactSummary is the react log over one horizon.
type reactSummary struct {
	attempted, failed      int
	total, detect, program []float64 // milliseconds, completed events
}

// summarize counts the events that occurred in [from, end] and were
// resolved by end: an event succeeds when its rule was installed by its
// deadline.
func (l *reactLog) summarize(from, end float64) reactSummary {
	var s reactSummary
	for _, e := range l.events {
		if !e.counted || e.at < from || e.deadline > end {
			continue
		}
		s.attempted++
		if e.done < 0 || e.done > e.deadline {
			s.failed++
			continue
		}
		s.total = append(s.total, 1000*(e.done-e.at))
		s.detect = append(s.detect, 1000*(e.decided-e.at))
		s.program = append(s.program, 1000*(e.done-e.decided))
	}
	return s
}
