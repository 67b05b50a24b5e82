package core

import (
	"fmt"

	"mdn/internal/acoustic"
	"mdn/internal/netsim"
)

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

// IntervalApp is an App that also runs its own interval accounting
// (heavy hitter, port scan, spread detection). Its Start both
// subscribes HandleWindow and schedules the interval ticker, so the
// Manager defers wiring to it.
type IntervalApp interface {
	App
	// Start subscribes the app to the controller and begins interval
	// accounting at time at.
	Start(ctrl *Controller, at float64)
}

// Manager assembles a controller and a set of applications: it owns
// the watch list, wires each app's window handler, and starts
// everything at one instant. It removes the deployment boilerplate
// that every experiment and example otherwise repeats — and enforces
// that all deployed frequencies come from one plan, the coexistence
// rule of Section 3 ("each task uses a different set of frequencies
// and the listening application knows the frequency mappings").
type Manager struct {
	// Ctrl is the managed controller.
	Ctrl *Controller
	// Plan validates that deployed frequencies are allocated.
	Plan *FrequencyPlan

	apps    []App
	started bool
}

// NewManager builds a manager around a microphone with an empty
// Goertzel detector; Deploy extends the watch list per app.
func NewManager(sim *netsim.Sim, mic *acoustic.Microphone, plan *FrequencyPlan) *Manager {
	return &Manager{
		Ctrl: NewController(sim, mic, NewDetector(MethodGoertzel, nil)),
		Plan: plan,
	}
}

// Deploy registers an application: its frequencies join the watch
// list (validated against the plan when one is set) and its window
// handler is subscribed. IntervalApps are started when the manager
// starts. Applications with an error sink share the controller's
// error log, so their failures feed its health state. Deploying after
// Start is an error.
func (m *Manager) Deploy(app App) error {
	if m.started {
		return fmt.Errorf("core: cannot deploy after Start")
	}
	freqs := app.Frequencies()
	if len(freqs) == 0 {
		return fmt.Errorf("core: app %T watches no frequencies", app)
	}
	if m.Plan != nil {
		for _, f := range freqs {
			if _, _, ok := m.Plan.Identify(f, m.Plan.DefaultTolerance()); !ok {
				return fmt.Errorf("core: app %T frequency %g Hz is not allocated in the plan", app, f)
			}
		}
	}
	if sink, ok := app.(interface{ SetErrorLog(*ErrorLog) }); ok {
		sink.SetErrorLog(m.Ctrl.Errors)
	}
	m.Ctrl.Detector.AddWatch(freqs...)
	m.apps = append(m.apps, app)
	return nil
}

// Start wires interval apps and begins polling at time at.
func (m *Manager) Start(at float64) {
	if m.started {
		return
	}
	m.started = true
	m.wireApps(at)
	m.Ctrl.Start(at)
}

// StartStream wires interval apps and begins streaming analysis at
// time at with the given hop (see Controller.StartStream). Deployed
// applications run unchanged: they receive one window batch per hop
// through the same subscriptions Start would give them.
func (m *Manager) StartStream(at, hop float64) *StreamController {
	if m.started {
		return m.Ctrl.Stream()
	}
	m.started = true
	m.wireApps(at)
	return m.Ctrl.StartStream(at, hop)
}

func (m *Manager) wireApps(at float64) {
	for _, app := range m.apps {
		if ia, ok := app.(IntervalApp); ok {
			ia.Start(m.Ctrl, at)
		} else {
			m.Ctrl.SubscribeWindowsNamed(fmt.Sprintf("%T", app), app.HandleWindow)
		}
	}
}

// Health returns the managed controller's health snapshot.
func (m *Manager) Health() HealthSnapshot { return m.Ctrl.Health() }

// Compile-time checks that the package's applications satisfy the
// interfaces the Manager dispatches on.
var (
	_ App         = (*PortKnock)(nil)
	_ App         = (*QueueMonitor)(nil)
	_ App         = (*MelodyCodec)(nil)
	_ IntervalApp = (*HeavyHitter)(nil)
	_ IntervalApp = (*PortScan)(nil)
	_ IntervalApp = (*SpreadDetector)(nil)
)
