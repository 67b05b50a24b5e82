package core

import (
	"fmt"

	"mdn/internal/netsim"
	"mdn/internal/telemetry"
)

// Heartbeat is the liveness counterpart of fan monitoring: every
// registered switch plays its own heartbeat tone on a fixed period,
// and the controller raises an alert when a switch misses several
// consecutive beats — detecting device death, restarts, or a failed
// Pi/speaker, entirely out-of-band. Section 1 lists "device booting,
// restart or configuration" among the management tasks MDN targets;
// this is the monitoring half of that loop.
type Heartbeat struct {
	// Period is the beat interval in seconds.
	Period float64

	onset *OnsetFilter

	devices map[float64]*heartbeatDevice
	freqs   []float64

	// HistoryDropped counts entries evicted from Alerts by the bound.
	HistoryDropped uint64
	// Alerts accumulates raised alerts (last historyMax).
	Alerts []HeartbeatAlert

	events uint64 // alerts raised, including evicted ones
}

type heartbeatDevice struct {
	name    string
	voice   *Voice
	ticker  *netsim.Ticker
	missed  int
	beaten  bool // heard since the last check
	alerted bool

	// Beats counts heard heartbeats.
	Beats uint64
}

// HeartbeatAlert reports a device gone silent.
type HeartbeatAlert struct {
	// Time is when the alert was raised.
	Time float64
	// Device is the silent device's name.
	Device string
	// MissedBeats is the consecutive misses at alert time.
	MissedBeats int
}

// HeartbeatMissThreshold is how many consecutive missed beats raise
// an alert.
const HeartbeatMissThreshold = 3

// DefaultHeartbeatPeriod is a new monitor's beat interval in seconds.
const DefaultHeartbeatPeriod = 1.0

// NewHeartbeat builds a monitor with the default period and a 3-beat
// miss threshold.
func NewHeartbeat() *Heartbeat {
	return &Heartbeat{
		Period:  DefaultHeartbeatPeriod,
		onset:   NewOnsetFilter(),
		devices: make(map[float64]*heartbeatDevice),
	}
}

// Register allocates a heartbeat tone for the device from the plan
// and returns it. Call before Start.
func (hb *Heartbeat) Register(plan *FrequencyPlan, name string, voice *Voice) (float64, error) {
	freqs, err := plan.AllocateSpaced(name+"/heartbeat", 1, DefaultStride)
	if err != nil {
		return 0, err
	}
	f := freqs[0]
	hb.devices[f] = &heartbeatDevice{name: name, voice: voice}
	hb.freqs = append(hb.freqs, f)
	return f, nil
}

// Frequencies returns the registered heartbeat tones.
func (hb *Heartbeat) Frequencies() []float64 {
	out := make([]float64, len(hb.freqs))
	copy(out, hb.freqs)
	return out
}

// StartDevice begins a device's beat loop; stop it with the returned
// ticker (simulating device death).
func (hb *Heartbeat) StartDevice(sim *netsim.Sim, freq float64, at float64) (*netsim.Ticker, error) {
	dev, ok := hb.devices[freq]
	if !ok {
		return nil, fmt.Errorf("core: no device registered at %g Hz", freq)
	}
	dev.ticker = sim.Every(at, hb.Period, func(float64) {
		dev.voice.Play(freq)
	})
	return dev.ticker, nil
}

// Start wires the controller side: window handling plus the per-period
// miss check.
func (hb *Heartbeat) Start(ctrl *Controller, at float64) {
	ctrl.SubscribeWindows(hb.HandleWindow)
	// Check half a period after each expected beat so a beat's
	// detection windows have closed.
	ctrl.Sim().Every(at+float64(hb.Period*1.5), hb.Period, func(now float64) {
		hb.check(now)
	})
}

// HandleWindow consumes one detection window.
func (hb *Heartbeat) HandleWindow(_ float64, dets []Detection) {
	for _, det := range hb.onset.Step(dets) {
		if dev, ok := hb.devices[det.Frequency]; ok {
			dev.beaten = true
			dev.Beats++
		}
	}
}

func (hb *Heartbeat) check(now float64) {
	// Registration order, not map order: devices that miss the same
	// check alert in a reproducible order.
	for _, freq := range hb.freqs {
		dev := hb.devices[freq]
		if dev.beaten {
			dev.beaten = false
			dev.missed = 0
			dev.alerted = false
			continue
		}
		dev.missed++
		if dev.missed >= HeartbeatMissThreshold && !dev.alerted {
			dev.alerted = true
			hb.events++
			hb.Alerts = appendBounded(hb.Alerts, HeartbeatAlert{
				Time: now, Device: dev.name, MissedBeats: dev.missed,
			}, historyMax, &hb.HistoryDropped)
		}
	}
}

// Instrument exposes the monitor's counters under app="heartbeat".
// name labels the controller (heartbeats span switches).
func (hb *Heartbeat) Instrument(reg *telemetry.Registry, name string) {
	reg.Func(appLabels(metricAppOnsets, "heartbeat", name),
		func() float64 { return float64(hb.onset.Onsets) })
	reg.Func(appLabels(metricAppEvents, "heartbeat", name),
		func() float64 { return float64(hb.events) })
	reg.Func(appLabels(metricAppHistoryDropped, "heartbeat", name),
		func() float64 { return float64(hb.HistoryDropped) })
}

// BeatsOf returns how many heartbeats of the named device were heard.
func (hb *Heartbeat) BeatsOf(name string) uint64 {
	for _, freq := range hb.freqs {
		if dev := hb.devices[freq]; dev.name == name {
			return dev.Beats
		}
	}
	return 0
}
