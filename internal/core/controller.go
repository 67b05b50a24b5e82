package core

import (
	"sync"

	"mdn/internal/acoustic"
	"mdn/internal/netsim"
	"mdn/internal/telemetry"
)

// Controller is the Music-Defined Network controller: it polls its
// microphone in fixed windows, runs the tone detector, and fans
// detections out to subscribed applications. It can coexist with (or
// replace) a conventional SDN controller — applications that need to
// program switches hold openflow channels of their own.
//
// The fan-out is supervised: every subscriber runs inside a recover
// barrier, a subscriber that panics quarantineThreshold times in a row
// is quarantined, and the controller's liveness, error rates, and
// wire-fault counters roll up into the Health snapshot.
type Controller struct {
	// Window is the capture/analysis window in seconds. The paper
	// processes ~50 ms samples (Figure 2b).
	Window float64
	// Detector analyses each window.
	Detector *Detector
	// Errors collects application and subscriber failures; it feeds
	// the health state machine. Applications with an error sink share
	// it.
	Errors *ErrorLog
	// Retention, when positive, bounds the acoustic history the window
	// loop keeps: after analysing [from, to) the controller compacts
	// the room's emission store below from−Retention (see
	// acoustic.Room.CompactBefore), so a long-running deployment's
	// memory tracks the audible horizon instead of the whole schedule.
	// 0 (the default) keeps every emission — required when anything
	// re-captures arbitrary past windows out of band (experiment WAV
	// dumps). Out-of-band reads behind the compaction horizon fail with
	// acoustic.ErrCompacted rather than silently analysing silence.
	Retention float64

	sim    *netsim.Sim
	mic    *acoustic.Microphone
	ticker *netsim.Ticker
	fleet  *Fleet // the detection engine: the controller's microphone on GOMAXPROCS workers
	stream *StreamController
	devmon *DeviceMonitor

	// mu guards the subscriber list so registration is safe from any
	// goroutine, at any time — including while the poll loop runs.
	// Everything else on the controller belongs to the simulation
	// goroutine.
	mu       sync.Mutex
	subs     []*subscriber
	autoName int
	// subsGen counts registrations; snap/snapGen cache the dispatch
	// snapshot so the hot path re-copies the list only when it changed
	// (see snapshotSubs).
	subsGen uint64
	snapGen uint64
	snap    []*subscriber

	started bool
	startAt float64
	health  healthInputs
	tm      controllerMetrics

	// Windows counts analysed windows.
	Windows uint64
	// Detections counts tones seen (per window, before any onset
	// filtering).
	Detections uint64
	// HandlerPanics counts recovered subscriber panics.
	HandlerPanics uint64
}

// App is the controller-side face of an MDN application: the
// frequencies it needs watched and its per-window handler. Every
// application in this package implements it.
type App interface {
	// Frequencies returns the tones the controller must watch for
	// this application.
	Frequencies() []float64
	// HandleWindow consumes one detection window.
	HandleWindow(windowStart float64, dets []Detection)
}

// DefaultWindow is the controller's default capture window: 50 ms,
// matching the paper's sample length.
const DefaultWindow = 0.050

// NewController builds a controller polling the given microphone. Its
// fleet (see EnableFleet) has one worker per processor, so a lone
// microphone's window is split across them when its Goertzel bank runs
// at least two passes (see Fleet); detections are byte-identical at
// any worker count.
func NewController(sim *netsim.Sim, mic *acoustic.Microphone, det *Detector) *Controller {
	c := &Controller{
		Window:   DefaultWindow,
		Detector: det,
		Errors:   NewErrorLog(),
		sim:      sim,
		mic:      mic,
	}
	c.EnableFleet(0)
	return c
}

// SubscribeWindows registers a per-window handler receiving the whole
// detection batch (possibly empty) — what onset filters need.
// Registration is safe from any goroutine, before or after Start; a
// handler registered mid-run sees windows beginning with the next one.
func (c *Controller) SubscribeWindows(fn func(windowStart float64, dets []Detection)) {
	c.SubscribeWindowsNamed("", fn)
}

// SubscribeWindowsNamed registers a per-window handler under an
// explicit name, which identifies it in Health reports and quarantine
// lists.
func (c *Controller) SubscribeWindowsNamed(name string, fn func(windowStart float64, dets []Detection)) {
	c.addSubscriber(&subscriber{name: name, onWin: fn})
}

// Start begins polling at time at (the first analysed window is
// [at, at+Window)). Call Stop to halt. Starting twice stops the
// previous poller, and starting stops a running stream.
func (c *Controller) Start(at float64) {
	if c.ticker != nil {
		c.ticker.Stop()
	}
	if c.stream != nil {
		c.stream.Stop()
	}
	c.started = true
	c.startAt = at
	c.health.lastWindowEnd = at
	// The window ending at tick time t covers [t-Window, t): all
	// emissions overlapping it were scheduled by events at earlier
	// sim times, so capture is complete and causal.
	c.ticker = c.sim.Every(at+c.Window, c.Window, func(now float64) {
		c.analyse(now-c.Window, now)
	})
}

// Stop halts polling — the window loop and, if one is running, the
// streaming pipeline. A stopped controller is idle, not stalled, in
// its Health snapshot.
func (c *Controller) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
	if c.stream != nil {
		c.stream.Stop()
	}
	c.started = false
}

func (c *Controller) analyse(from, to float64) {
	// Decode span: the wall-clock cost of capture + detection, the
	// quantity Figure 2b bounds against the 50 ms window budget.
	sp := telemetry.StartSpan(c.tm.decode, c.tm.wall)
	dets := c.fleet.Analyse(from, to)
	sp.End()
	c.noteDetections(from, to, dets)
}

// noteDetections folds one analysed window into the controller:
// counters, health inputs, the supervised subscriber fan-out, and the
// Retention compaction. It is the shared back half of the batch window
// loop and the streaming pipeline — both paths feed the same
// subscribers with the same batch shape, so applications run unchanged
// on either.
func (c *Controller) noteDetections(from, to float64, dets []Detection) {
	if c.devmon != nil {
		// Device-health fold: noise EWMAs, recalibration, quarantine,
		// probes, and the re-key rewrite of shifted detections back to
		// their commanded frequencies — before dispatch, so subscribers
		// see the frequencies applications were told to expect.
		dets = c.devmon.finishWindow(from, to, dets)
	}
	c.Windows++
	c.Detections += uint64(len(dets))
	c.tm.windows.Inc()
	c.tm.detections.Add(uint64(len(dets)))
	c.noteWindow(to, dets)
	subs := c.snapshotSubs()
	for _, s := range subs {
		c.invoke(s, from, dets)
	}
	if c.Retention > 0 {
		c.mic.Room().CompactBefore(from - c.Retention)
	}
}

// EnableFleet replaces the controller's fleet with one of the given
// workers cloned from its detector, seeded with the controller's own
// microphone, and returns the fleet so further listening points can be
// added with AddMicrophone. workers <= 0 means GOMAXPROCS, the fleet
// NewController builds; 1 analyses every window on the calling
// goroutine. Detections from all microphones are merged by (time,
// frequency) before dispatch, so subscriber semantics are unchanged —
// handlers still see one ordered batch per window. Call it before
// Start, StartStream and EnableDeviceMonitor.
func (c *Controller) EnableFleet(workers int) *Fleet {
	f := NewFleet(c.Detector, workers)
	f.AddMicrophone(c.mic)
	c.fleet = f
	return f
}

// Sim returns the controller's clock.
func (c *Controller) Sim() *netsim.Sim { return c.sim }
