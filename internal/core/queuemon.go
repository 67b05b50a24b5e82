package core

import (
	"mdn/internal/netsim"
	"mdn/internal/telemetry"
)

// Queue occupancy levels, matching the paper's Section 6 thresholds:
// fewer than 25 packets plays 500 Hz, 25–75 plays 600 Hz, more than
// 75 plays 700 Hz.
const (
	// LevelLow is an uncongested queue.
	LevelLow = iota
	// LevelMid is a filling queue.
	LevelMid
	// LevelHigh is a congested queue.
	LevelHigh
)

// LevelName names a queue level.
func LevelName(level int) string {
	switch level {
	case LevelLow:
		return "low"
	case LevelMid:
		return "mid"
	case LevelHigh:
		return "high"
	default:
		return "unknown"
	}
}

// QueueMonitor is the Section 6 congestion-monitoring application:
// every SampleInterval the switch measures its output-queue
// occupancy (the paper polls tc every 300 ms) and plays the level's
// tone; the controller maps heard tones back to occupancy ranges.
type QueueMonitor struct {
	// LowThreshold and HighThreshold are the packet-count boundaries
	// (paper: 25 and 75).
	LowThreshold, HighThreshold int
	// SampleInterval is the switch-side sampling period in seconds
	// (paper: 300 ms).
	SampleInterval float64

	sw    *netsim.Switch
	port  int
	voice *Voice
	freqs [3]float64
	onset *OnsetFilter

	// HistoryDropped counts entries evicted from QueueSeries, ToneLog
	// and Heard, which keep the last historyMax entries each.
	HistoryDropped uint64

	// QueueSeries records the switch-side occupancy samples
	// (Figure 5a/5c ground truth), last historyMax.
	QueueSeries []netsim.Sample
	// ToneLog records the switch-side tones as (time, level), bounded
	// like QueueSeries.
	ToneLog []LevelSample
	// Heard records the controller-side decoded levels, bounded like
	// QueueSeries.
	Heard []LevelSample

	heard uint64 // levels decoded, including evicted ones
}

// LevelSample is one decoded or emitted queue level.
type LevelSample struct {
	// Time in seconds.
	Time float64
	// Level is LevelLow/Mid/High.
	Level int
}

// NewQueueMonitor builds a monitor for one switch output port using
// the paper's default thresholds. The three level tones are allocated
// from the plan with guard bands so other apps cannot collide with
// them (the paper's testbed used 500, 600 and 700 Hz).
func NewQueueMonitor(plan *FrequencyPlan, sw *netsim.Switch, port int, voice *Voice) (*QueueMonitor, error) {
	freqs, err := plan.AllocateSpaced(sw.Name+"/queuemon", 3, DefaultStride)
	if err != nil {
		return nil, err
	}
	qm := &QueueMonitor{
		LowThreshold:   25,
		HighThreshold:  75,
		SampleInterval: 0.3,
		sw:             sw,
		port:           port,
		voice:          voice,
		onset:          NewOnsetFilter(),
	}
	copy(qm.freqs[:], freqs)
	return qm, nil
}

// Frequencies returns the three level tones (low, mid, high).
func (qm *QueueMonitor) Frequencies() []float64 {
	return []float64{qm.freqs[0], qm.freqs[1], qm.freqs[2]}
}

// LevelOf classifies an occupancy.
func (qm *QueueMonitor) LevelOf(queueLen int) int {
	switch {
	case queueLen < qm.LowThreshold:
		return LevelLow
	case queueLen <= qm.HighThreshold:
		return LevelMid
	default:
		return LevelHigh
	}
}

// LevelFor maps a heard frequency back to a level (-1 when the
// frequency is not one of the monitor's tones).
func (qm *QueueMonitor) LevelFor(freq float64) int {
	for lvl, f := range qm.freqs {
		if f == freq {
			return lvl
		}
	}
	return -1
}

// StartSwitchSide begins the switch's 300 ms sample-and-play loop.
func (qm *QueueMonitor) StartSwitchSide(sim *netsim.Sim, at float64) *netsim.Ticker {
	return sim.Every(at, qm.SampleInterval, func(now float64) {
		qLen := qm.sw.QueueLen(qm.port)
		qm.QueueSeries = appendBounded(qm.QueueSeries, netsim.Sample{Time: now, Value: float64(qLen)},
			historyMax, &qm.HistoryDropped)
		lvl := qm.LevelOf(qLen)
		qm.ToneLog = appendBounded(qm.ToneLog, LevelSample{Time: now, Level: lvl},
			historyMax, &qm.HistoryDropped)
		qm.voice.Play(qm.freqs[lvl])
	})
}

// HandleWindow is the controller-side hook (wire via
// Controller.SubscribeWindows).
func (qm *QueueMonitor) HandleWindow(_ float64, dets []Detection) {
	for _, det := range qm.onset.Step(dets) {
		if lvl := qm.LevelFor(det.Frequency); lvl >= 0 {
			qm.heard++
			qm.Heard = appendBounded(qm.Heard, LevelSample{Time: det.Time, Level: lvl},
				historyMax, &qm.HistoryDropped)
		}
	}
}

// Instrument exposes the monitor's counters under app="queuemon",
// switch=switchName. Events are decoded queue levels.
func (qm *QueueMonitor) Instrument(reg *telemetry.Registry, switchName string) {
	reg.Func(appLabels(metricAppOnsets, "queuemon", switchName),
		func() float64 { return float64(qm.onset.Onsets) })
	reg.Func(appLabels(metricAppEvents, "queuemon", switchName),
		func() float64 { return float64(qm.heard) })
	reg.Func(appLabels(metricAppHistoryDropped, "queuemon", switchName),
		func() float64 { return float64(qm.HistoryDropped) })
}

// HeardLevels collapses the controller-side log to its level sequence
// with consecutive duplicates removed — the 500→600→700→…→500
// trajectory of Figure 5d.
func (qm *QueueMonitor) HeardLevels() []int {
	var out []int
	for _, s := range qm.Heard {
		if len(out) == 0 || out[len(out)-1] != s.Level {
			out = append(out, s.Level)
		}
	}
	return out
}
