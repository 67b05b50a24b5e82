package core

import (
	"fmt"

	"mdn/internal/mp"
	"mdn/internal/openflow"
)

// HealthState is the controller's degradation level: the supervised
// runtime is Healthy, Degraded (still operating, but losing signal,
// shedding a quarantined app, or seeing recent errors), or Stalled
// (the control loop can no longer act: windows stopped arriving, or
// every subscriber is quarantined).
type HealthState int

// Health states, in degradation order.
const (
	// Healthy: windows flowing, no quarantines, no recent errors, wire
	// loss under the degradation threshold.
	Healthy HealthState = iota
	// Degraded: operating with reduced fidelity — see
	// HealthSnapshot.Reasons.
	Degraded
	// Stalled: the control loop is not acting on the network any more.
	Stalled
)

// String names the health state.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Stalled:
		return "stalled"
	default:
		return "unknown"
	}
}

// Health thresholds. They are fields of no struct so a Controller can
// stay zero-configured; override per controller via the exported
// knobs below when a deployment needs different trip points.
const (
	// DefaultStallWindows: this many consecutive expected windows
	// missing marks the controller Stalled.
	DefaultStallWindows = 4
	// DefaultDegradeLossRate: aggregate wire loss (dropped+corrupted
	// over sent) at or above this fraction marks Degraded.
	DefaultDegradeLossRate = 0.05
	// DefaultDegradeErrorAge: application errors younger than this
	// many seconds count as "recent" and mark Degraded.
	DefaultDegradeErrorAge = 5.0
	// DefaultDegradeAmpMargin: mean detected amplitude under
	// margin×MinAmplitude marks Degraded (detections barely clear the
	// floor — the acoustic SNR is eroding).
	DefaultDegradeAmpMargin = 1.25
	// minWireSample: loss rates are not judged until this many
	// messages crossed the wire.
	minWireSample = 20
	// healthRingSize: how many recent windows feed the SNR trend.
	healthRingSize = 64
)

// WireCounters is one control-path element's fault counters (an
// openflow channel or an MP sounder), as exported through Health.
type WireCounters struct {
	// Name identifies the element (typically the switch name).
	Name string `json:"name"`
	// Kind is "channel" or "sounder".
	Kind string `json:"kind"`
	// Sent counts messages pushed into the element.
	Sent uint64 `json:"sent"`
	// Dropped counts messages lost whole to faults.
	Dropped uint64 `json:"dropped"`
	// Corrupted counts messages rejected by the receiving codec.
	Corrupted uint64 `json:"corrupted"`
}

// HealthSnapshot is one observation of the controller's supervised
// runtime. Take it with Controller.Health() on the simulation
// goroutine (or while the simulation is idle).
type HealthSnapshot struct {
	// At is the virtual time of the snapshot.
	At float64 `json:"at"`
	// State is the rolled-up health state.
	State HealthState `json:"-"`
	// StateName is State as a string (for JSON reports).
	StateName string `json:"state"`
	// Reasons explains a non-Healthy state, one clause per trigger.
	Reasons []string `json:"reasons,omitempty"`

	// Windows and Detections mirror the controller counters.
	Windows    uint64 `json:"windows"`
	Detections uint64 `json:"detections"`
	// LastWindowEnd is when the latest analysed window closed.
	LastWindowEnd float64 `json:"last_window_end"`

	// HandlerPanics counts recovered subscriber panics.
	HandlerPanics uint64 `json:"handler_panics"`
	// Quarantined lists subscribers disabled by the circuit breaker.
	Quarantined []string `json:"quarantined,omitempty"`
	// Subscribers counts registered handlers.
	Subscribers int `json:"subscribers"`

	// ErrorsTotal counts every recorded application error;
	// RecentErrors counts those younger than the degradation age.
	ErrorsTotal  uint64 `json:"errors_total"`
	RecentErrors int    `json:"recent_errors"`

	// AmplitudeMargin is the mean detected amplitude over recent
	// windows divided by the detection floor (0 when no recent
	// windows carried detections).
	AmplitudeMargin float64 `json:"amplitude_margin"`

	// Wire aggregates registered channel/sounder fault counters;
	// WireLossRate is (dropped+corrupted)/sent across all of them.
	Wire         []WireCounters `json:"wire,omitempty"`
	WireLossRate float64        `json:"wire_loss_rate"`

	// Devices lists per-device health when a DeviceMonitor is enabled:
	// microphones in fleet order, then watched speakers.
	Devices []DeviceHealth `json:"devices,omitempty"`
}

// wireRef reads one registered element's counters lazily, so Health
// always reports current values.
type wireRef struct {
	name string
	kind string
	read func() (sent, dropped, corrupted uint64)
}

// healthInputs is the controller-side raw material of Health.
type healthInputs struct {
	lastWindowEnd float64
	ring          [healthRingSize]windowStat
	ringN         int // total windows noted (ring index = ringN % size)
	wires         []wireRef

	// Overrides of the Default* thresholds; zero means default.
	StallWindows     float64
	DegradeLossRate  float64
	DegradeErrorAge  float64
	DegradeAmpMargin float64
}

type windowStat struct {
	end    float64
	dets   int
	maxAmp float64
}

// noteWindow records one analysed window's health inputs.
func (c *Controller) noteWindow(end float64, dets []Detection) {
	h := &c.health
	h.lastWindowEnd = end
	maxAmp := 0.0
	for _, d := range dets {
		if d.Amplitude > maxAmp {
			maxAmp = d.Amplitude
		}
	}
	h.ring[h.ringN%healthRingSize] = windowStat{end: end, dets: len(dets), maxAmp: maxAmp}
	h.ringN++
}

// RegisterChannel adds an openflow control channel's fault counters
// to the Health snapshot.
func (c *Controller) RegisterChannel(name string, ch *openflow.Channel) {
	c.registerWire(wireRef{
		name: name, kind: "channel",
		read: func() (uint64, uint64, uint64) {
			return ch.SentFlowMods, ch.DroppedFlowMods, ch.CorruptedFlowMods
		},
	})
}

// RegisterSounder adds a switch-side MP sounder's fault counters to
// the Health snapshot.
func (c *Controller) RegisterSounder(name string, s *mp.Sounder) {
	c.registerWire(wireRef{
		name: name, kind: "sounder",
		read: func() (uint64, uint64, uint64) {
			return s.Sent, s.Dropped, s.Corrupted
		},
	})
}

// registerWire appends a wire to the health inputs and, if the
// controller is instrumented, exposes its counters immediately.
func (c *Controller) registerWire(w wireRef) {
	c.health.wires = append(c.health.wires, w)
	c.instrumentWire(w)
}

// RegisterVoice is RegisterSounder for a Voice-wrapped sounder.
func (c *Controller) RegisterVoice(name string, v *Voice) {
	c.RegisterSounder(name, v.Sounder())
}

func (h *healthInputs) threshold(v, def float64) float64 {
	if v > 0 {
		return v
	}
	return def
}

// Health rolls the controller's supervision inputs — the window
// watchdog, the detection-amplitude trend, per-app error rates, the
// quarantine list, and registered wire fault counters — into one
// snapshot with a Healthy/Degraded/Stalled verdict.
func (c *Controller) Health() HealthSnapshot {
	h := &c.health
	now := c.sim.Now()
	snap := HealthSnapshot{
		At:            now,
		Windows:       c.Windows,
		Detections:    c.Detections,
		LastWindowEnd: h.lastWindowEnd,
		HandlerPanics: c.HandlerPanics,
		ErrorsTotal:   c.Errors.Total(),
	}

	subs := c.snapshotSubs()
	snap.Subscribers = len(subs)
	for _, s := range subs {
		if s.quarantined {
			snap.Quarantined = append(snap.Quarantined, s.name)
		}
	}

	errAge := h.threshold(h.DegradeErrorAge, DefaultDegradeErrorAge)
	snap.RecentErrors = c.Errors.Since(now - errAge)

	// Recent detection-amplitude margin (SNR trend stand-in): mean of
	// the per-window loudest detection over windows that had any.
	n := h.ringN
	if n > healthRingSize {
		n = healthRingSize
	}
	sum, cnt := 0.0, 0
	for i := 0; i < n; i++ {
		st := h.ring[i]
		if st.dets > 0 {
			sum += st.maxAmp
			cnt++
		}
	}
	floor := c.Detector.MinAmplitude
	if cnt > 0 && floor > 0 {
		snap.AmplitudeMargin = (sum / float64(cnt)) / floor
	}

	// Wire fault counters.
	var sent, lost uint64
	for _, w := range h.wires {
		s, d, k := w.read()
		snap.Wire = append(snap.Wire, WireCounters{
			Name: w.name, Kind: w.kind, Sent: s, Dropped: d, Corrupted: k,
		})
		sent += s
		lost += d + k
	}
	if sent > 0 {
		snap.WireLossRate = float64(lost) / float64(sent)
	}

	// Device health: the monitor's per-device rows, plus the counts the
	// verdict below folds in.
	var micsQuarantined, micsTotal, speakersUnhealthy int
	if m := c.devmon; m != nil {
		snap.Devices = m.Snapshot()
		micsTotal = len(m.mics)
		micsQuarantined = m.MicsQuarantined()
		for _, t := range m.speakers {
			if t.state == DeviceDetuned || t.state == DeviceSilent {
				speakersUnhealthy++
			}
		}
	}

	// Verdict: Stalled beats Degraded beats Healthy.
	stallAfter := h.threshold(h.StallWindows, DefaultStallWindows) * c.Window
	if c.started && now-h.lastWindowEnd > stallAfter {
		snap.Reasons = append(snap.Reasons, fmt.Sprintf(
			"no window analysed for %.3f s (stall threshold %.3f s)", now-h.lastWindowEnd, stallAfter))
		snap.State = Stalled
	}
	if len(subs) > 0 && len(snap.Quarantined) == len(subs) {
		snap.Reasons = append(snap.Reasons, "every subscriber is quarantined")
		snap.State = Stalled
	}
	if micsTotal > 0 && micsQuarantined == micsTotal {
		snap.Reasons = append(snap.Reasons, "every microphone is quarantined")
		snap.State = Stalled
	}
	if snap.State != Stalled {
		if micsQuarantined > 0 {
			snap.Reasons = append(snap.Reasons, fmt.Sprintf(
				"%d of %d microphone(s) quarantined", micsQuarantined, micsTotal))
		}
		if speakersUnhealthy > 0 {
			snap.Reasons = append(snap.Reasons, fmt.Sprintf(
				"%d speaker(s) detuned or silent", speakersUnhealthy))
		}
		if len(snap.Quarantined) > 0 {
			snap.Reasons = append(snap.Reasons, fmt.Sprintf("%d subscriber(s) quarantined", len(snap.Quarantined)))
		}
		if snap.RecentErrors > 0 {
			snap.Reasons = append(snap.Reasons, fmt.Sprintf("%d error(s) in the last %.0f s", snap.RecentErrors, errAge))
		}
		lossTrip := h.threshold(h.DegradeLossRate, DefaultDegradeLossRate)
		if sent >= minWireSample && snap.WireLossRate >= lossTrip {
			snap.Reasons = append(snap.Reasons, fmt.Sprintf(
				"wire loss %.1f%% over %d message(s)", 100*snap.WireLossRate, sent))
		}
		ampTrip := h.threshold(h.DegradeAmpMargin, DefaultDegradeAmpMargin)
		if cnt >= 8 && snap.AmplitudeMargin > 0 && snap.AmplitudeMargin < ampTrip {
			snap.Reasons = append(snap.Reasons, fmt.Sprintf(
				"detection amplitude margin %.2fx of floor (trip %.2fx)", snap.AmplitudeMargin, ampTrip))
		}
		if len(snap.Reasons) > 0 {
			snap.State = Degraded
		}
	}
	snap.StateName = snap.State.String()
	return snap
}
