package core

import (
	"sort"

	"mdn/internal/netsim"
	"mdn/internal/telemetry"
)

// HeavyHitter is the Section 5 telemetry application: the switch
// hashes each packet's five-tuple onto its frequency set and plays
// the bucket's tone (rate-limited by the Voice); the controller
// counts tone onsets per bucket per interval and flags buckets whose
// count crosses a threshold. The measurement is passive (no packet
// modification), routing- and topology-oblivious — the properties the
// paper claims for Music-Defined Telemetry.
type HeavyHitter struct {
	// Interval is the counting window in seconds.
	Interval float64
	// Threshold is the onset count within one interval that flags a
	// bucket as a heavy hitter.
	Threshold int

	voice *Voice
	freqs []float64
	onset *OnsetFilter

	counter    FlowCounter
	intervalAt float64

	// HistoryDropped counts entries evicted from Reports and History
	// by the bound.
	HistoryDropped uint64

	// Reports accumulates flagged buckets (last historyMax).
	Reports []HHReport
	// History records per-interval counts for plotting (Figure 4a-b),
	// bounded like Reports.
	History []HHSample

	events uint64 // reports raised, including evicted ones
}

// HHReport is one heavy-hitter detection.
type HHReport struct {
	// Time is the end of the flagging interval.
	Time float64
	// Frequency is the bucket tone.
	Frequency float64
	// Bucket is the index within the switch's frequency set.
	Bucket int
	// Count is the onset count in the interval.
	Count int
}

// HHSample is one interval's per-bucket counts.
type HHSample struct {
	// Time is the interval end.
	Time float64
	// Counts maps bucket index to onset count.
	Counts map[int]int
}

// NewHeavyHitter allocates buckets frequencies for the switch and
// builds the application. Wire Tap into the switch, HandleWindow into
// the controller, and call Start to begin interval accounting.
func NewHeavyHitter(plan *FrequencyPlan, switchName string, voice *Voice, buckets int) (*HeavyHitter, error) {
	// Bucket tones of concurrent flows overlap constantly; use
	// guard-banded slots.
	freqs, err := plan.AllocateSpaced(switchName+"/heavyhitter", buckets, DefaultStride)
	if err != nil {
		return nil, err
	}
	return &HeavyHitter{
		Interval:  1.0,
		Threshold: 5,
		voice:     voice,
		freqs:     freqs,
		onset:     NewOnsetFilter(),
		counter:   NewExactFlowCounter(),
	}, nil
}

// SetFlowCounter swaps the per-interval counting store — e.g. a
// SketchFlowCounter for bounded-memory operation. Call before Start;
// any accumulated counts stay in the old store.
func (hh *HeavyHitter) SetFlowCounter(c FlowCounter) {
	if c != nil {
		hh.counter = c
	}
}

// Counter returns the active counting store.
func (hh *HeavyHitter) Counter() FlowCounter { return hh.counter }

// Frequencies returns the bucket tones the controller must watch.
func (hh *HeavyHitter) Frequencies() []float64 {
	out := make([]float64, len(hh.freqs))
	copy(out, hh.freqs)
	return out
}

// BucketOf returns the bucket index a flow hashes to.
func (hh *HeavyHitter) BucketOf(flow netsim.FiveTuple) int {
	return int(flow.Hash() % uint64(len(hh.freqs)))
}

// Tap is the switch-side hook: hash the flow, play the bucket tone.
func (hh *HeavyHitter) Tap(pkt *netsim.Packet, _ int) {
	hh.voice.Play(hh.freqs[hh.BucketOf(pkt.Flow)])
}

// Start begins interval accounting on the controller's clock.
func (hh *HeavyHitter) Start(ctrl *Controller, at float64) {
	hh.intervalAt = at
	ctrl.SubscribeWindows(hh.HandleWindow)
	ctrl.Sim().Every(at+hh.Interval, hh.Interval, func(now float64) {
		hh.closeInterval(now)
	})
}

// HandleWindow consumes one detection window.
func (hh *HeavyHitter) HandleWindow(_ float64, dets []Detection) {
	for _, det := range hh.onset.Step(dets) {
		hh.counter.Add(FreqKey(det.Frequency), 1)
	}
}

func (hh *HeavyHitter) closeInterval(now float64) {
	sample := HHSample{Time: now}
	for i, f := range hh.freqs {
		c := int(hh.counter.Estimate(FreqKey(f)))
		if c > 0 {
			// History retains each interval's map, so quiet intervals
			// allocate none at all.
			if sample.Counts == nil {
				sample.Counts = make(map[int]int)
			}
			sample.Counts[i] = c
		}
		if c >= hh.Threshold {
			hh.events++
			hh.Reports = appendBounded(hh.Reports, HHReport{
				Time: now, Frequency: f, Bucket: i, Count: c,
			}, historyMax, &hh.HistoryDropped)
		}
	}
	hh.History = appendBounded(hh.History, sample, historyMax, &hh.HistoryDropped)
	hh.counter.Reset()
}

// Instrument exposes the application's counters under
// app="heavyhitter", switch=switchName.
func (hh *HeavyHitter) Instrument(reg *telemetry.Registry, switchName string) {
	reg.Func(appLabels(metricAppOnsets, "heavyhitter", switchName),
		func() float64 { return float64(hh.onset.Onsets) })
	reg.Func(appLabels(metricAppEvents, "heavyhitter", switchName),
		func() float64 { return float64(hh.events) })
	reg.Func(appLabels(metricAppHistoryDropped, "heavyhitter", switchName),
		func() float64 { return float64(hh.HistoryDropped) })
	instrumentSketchFlow(reg, "heavyhitter", switchName, hh.counter)
}

// FlaggedBuckets returns the distinct flagged bucket indices, sorted.
func (hh *HeavyHitter) FlaggedBuckets() []int {
	seen := make(map[int]bool)
	for _, r := range hh.Reports {
		seen[r.Bucket] = true
	}
	out := make([]int, 0, len(seen))
	for b := range seen {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}
