package core

import (
	"mdn/internal/netsim"
	"mdn/internal/telemetry"
)

// PortScan is the Section 5 security-telemetry application: the
// switch plays a tone whose frequency is based on the packet's
// destination port; a naive sequential scan appears as a clean
// monotone sweep across the switch's frequency set (the logarithmic
// line of Figure 4c's mel-scaled spectrogram), and the controller
// alerts when it hears too many distinct port tones from one switch
// within an interval.
type PortScan struct {
	// FirstPort is the lowest monitored destination port.
	FirstPort uint16
	// Interval is the alerting window in seconds.
	Interval float64
	// Threshold is the distinct-port count within one interval that
	// raises a scan alert.
	Threshold int

	voice *Voice
	freqs []float64
	onset *OnsetFilter

	distinct DistinctCounter
	alerted  bool // alert already raised in the current interval

	// HistoryDropped counts entries evicted from Alerts and Sweep by
	// the bound.
	HistoryDropped uint64

	// Alerts accumulates raised alerts (last historyMax).
	Alerts []ScanAlert
	// Sweep records onsets in time order for the spectrogram view,
	// bounded like Alerts.
	Sweep []Detection

	events uint64 // alerts raised, including evicted ones
}

// ScanAlert is one port-scan detection.
type ScanAlert struct {
	// Time is the end of the alerting interval.
	Time float64
	// DistinctPorts is how many monitored ports were probed.
	DistinctPorts int
}

// NewPortScan allocates one frequency per monitored port (numPorts
// starting at firstPort) and builds the application.
func NewPortScan(plan *FrequencyPlan, switchName string, voice *Voice, firstPort uint16, numPorts int) (*PortScan, error) {
	// Consecutive scan probes play back to back, so adjacent port
	// tones share windows; guard-band them.
	freqs, err := plan.AllocateSpaced(switchName+"/portscan", numPorts, DefaultStride)
	if err != nil {
		return nil, err
	}
	return &PortScan{
		FirstPort: firstPort,
		Interval:  2.0,
		Threshold: 10,
		voice:     voice,
		freqs:     freqs,
		onset:     NewOnsetFilter(),
		distinct:  NewExactDistinctCounter(),
	}, nil
}

// SetDistinctCounter swaps the distinct-port store — e.g. a
// SketchDistinctCounter for bounded-memory operation. Call before
// Start.
func (ps *PortScan) SetDistinctCounter(c DistinctCounter) {
	if c != nil {
		ps.distinct = c
	}
}

// DistinctCounter returns the active distinct-port store.
func (ps *PortScan) DistinctCounter() DistinctCounter { return ps.distinct }

// Frequencies returns the monitored port tones.
func (ps *PortScan) Frequencies() []float64 {
	out := make([]float64, len(ps.freqs))
	copy(out, ps.freqs)
	return out
}

// FrequencyFor returns the tone for a destination port, or 0 when the
// port is outside the monitored range.
func (ps *PortScan) FrequencyFor(port uint16) float64 {
	idx := int(port) - int(ps.FirstPort)
	if idx < 0 || idx >= len(ps.freqs) {
		return 0
	}
	return ps.freqs[idx]
}

// PortFor inverts FrequencyFor (0, false when unknown).
func (ps *PortScan) PortFor(freq float64) (uint16, bool) {
	for i, f := range ps.freqs {
		if f == freq {
			return ps.FirstPort + uint16(i), true
		}
	}
	return 0, false
}

// Tap is the switch-side hook: play the destination port's tone.
func (ps *PortScan) Tap(pkt *netsim.Packet, _ int) {
	if f := ps.FrequencyFor(pkt.Flow.DstPort); f > 0 {
		ps.voice.Play(f)
	}
}

// Start begins interval accounting on the controller's clock.
func (ps *PortScan) Start(ctrl *Controller, at float64) {
	ctrl.SubscribeWindows(ps.HandleWindow)
	ctrl.Sim().Every(at+ps.Interval, ps.Interval, func(now float64) {
		ps.closeInterval(now)
	})
}

// HandleWindow consumes one detection window. The alert fires the
// moment the distinct-port count crosses Threshold — not at the end
// of the interval — and at most once per interval; the guard re-arms
// when the interval closes.
func (ps *PortScan) HandleWindow(_ float64, dets []Detection) {
	for _, det := range ps.onset.Step(dets) {
		if _, ok := ps.PortFor(det.Frequency); !ok {
			continue
		}
		ps.distinct.Observe(FreqKey(det.Frequency))
		ps.Sweep = appendBounded(ps.Sweep, det, historyMax, &ps.HistoryDropped)
		if d := ps.distinct.Distinct(); d >= ps.Threshold && !ps.alerted {
			ps.alerted = true
			ps.events++
			ps.Alerts = appendBounded(ps.Alerts, ScanAlert{
				Time: det.Time, DistinctPorts: d,
			}, historyMax, &ps.HistoryDropped)
		}
	}
}

func (ps *PortScan) closeInterval(_ float64) {
	ps.distinct.Reset()
	ps.alerted = false
}

// Instrument exposes the application's counters under app="portscan",
// switch=switchName.
func (ps *PortScan) Instrument(reg *telemetry.Registry, switchName string) {
	reg.Func(appLabels(metricAppOnsets, "portscan", switchName),
		func() float64 { return float64(ps.onset.Onsets) })
	reg.Func(appLabels(metricAppEvents, "portscan", switchName),
		func() float64 { return float64(ps.events) })
	reg.Func(appLabels(metricAppHistoryDropped, "portscan", switchName),
		func() float64 { return float64(ps.HistoryDropped) })
	instrumentSketchDistinct(reg, "portscan", switchName, ps.distinct)
}

// SweepIsMonotone reports whether the recorded sweep's frequencies
// are nondecreasing — the visual signature of a sequential scan.
func (ps *PortScan) SweepIsMonotone() bool {
	for i := 1; i < len(ps.Sweep); i++ {
		if ps.Sweep[i].Frequency < ps.Sweep[i-1].Frequency {
			return false
		}
	}
	return len(ps.Sweep) > 0
}
