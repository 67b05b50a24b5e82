package core

import (
	"encoding/binary"
	"hash/fnv"
	"net/netip"

	"mdn/internal/netsim"
	"mdn/internal/telemetry"
)

// SpreadMode selects what the spread detector watches.
type SpreadMode int

// Spread-detection modes, from the open problem at the end of the
// paper's Section 5.
const (
	// ModeSuperspreader watches one source host: the switch maps the
	// *destination* address of each of its packets to a frequency,
	// so a k-superspreader (a host contacting more than k unique
	// destinations in an interval) sounds like many distinct tones.
	ModeSuperspreader SpreadMode = iota
	// ModeDDoSVictim watches one destination host: the switch maps
	// the *source* address of packets to it onto frequencies, so a
	// DDoS victim (contacted by more than k unique sources) sounds
	// like many distinct tones.
	ModeDDoSVictim
)

// String names the mode.
func (m SpreadMode) String() string {
	switch m {
	case ModeSuperspreader:
		return "superspreader"
	case ModeDDoSVictim:
		return "ddos-victim"
	default:
		return "unknown"
	}
}

// SpreadDetector implements the paper's Section 5 open problem:
// k-superspreader and DDoS-victim detection "by mapping destination
// addresses to frequencies". One watched host, one bank of
// address-hash buckets; the controller counts distinct bucket tones
// per interval against k. Bucket collisions make the distinct count a
// lower bound, so the detector never over-alerts due to hashing.
type SpreadDetector struct {
	// Mode selects superspreader or DDoS-victim semantics.
	Mode SpreadMode
	// Watched is the host under observation (the suspected spreader
	// or the protected victim).
	Watched netip.Addr
	// K is the distinct-counterpart threshold per interval.
	K int
	// Interval is the counting window in seconds.
	Interval float64

	voice *Voice
	freqs []float64
	onset *OnsetFilter

	distinct DistinctCounter

	// HistoryDropped counts entries evicted from Alerts and History by
	// the bound.
	HistoryDropped uint64

	// Alerts accumulates raised alerts (last historyMax).
	Alerts []SpreadAlert
	// History records per-interval distinct counts, bounded like
	// Alerts.
	History []netsim.Sample

	events uint64 // alerts raised, including evicted ones
}

// SpreadAlert is one spread detection.
type SpreadAlert struct {
	// Time is the end of the alerting interval.
	Time float64
	// Distinct is the number of distinct counterpart buckets heard
	// (a lower bound on distinct hosts).
	Distinct int
}

// NewSpreadDetector allocates buckets frequencies under the switch's
// name and builds the detector.
func NewSpreadDetector(plan *FrequencyPlan, switchName string, voice *Voice, mode SpreadMode, watched netip.Addr, buckets, k int) (*SpreadDetector, error) {
	freqs, err := plan.AllocateSpaced(switchName+"/spread-"+mode.String(), buckets, DefaultStride)
	if err != nil {
		return nil, err
	}
	return &SpreadDetector{
		Mode:     mode,
		Watched:  watched,
		K:        k,
		Interval: 1.0,
		voice:    voice,
		freqs:    freqs,
		onset:    NewOnsetFilter(),
		distinct: NewExactDistinctCounter(),
	}, nil
}

// SetDistinctCounter swaps the distinct-bucket store — e.g. a
// SketchDistinctCounter for bounded-memory operation. Call before
// Start.
func (sd *SpreadDetector) SetDistinctCounter(c DistinctCounter) {
	if c != nil {
		sd.distinct = c
	}
}

// Frequencies returns the bucket tones the controller must watch.
func (sd *SpreadDetector) Frequencies() []float64 {
	out := make([]float64, len(sd.freqs))
	copy(out, sd.freqs)
	return out
}

func addrHash(a netip.Addr) uint64 {
	h := fnv.New64a()
	b := a.As4()
	h.Write(b[:])
	var pad [2]byte
	binary.BigEndian.PutUint16(pad[:], 0x5d5d)
	h.Write(pad[:])
	return h.Sum64()
}

// BucketOf returns the bucket a counterpart address hashes to.
func (sd *SpreadDetector) BucketOf(counterpart netip.Addr) int {
	return int(addrHash(counterpart) % uint64(len(sd.freqs)))
}

// Tap is the switch-side hook: packets involving the watched host
// play their counterpart's bucket tone.
func (sd *SpreadDetector) Tap(pkt *netsim.Packet, _ int) {
	var counterpart netip.Addr
	switch sd.Mode {
	case ModeSuperspreader:
		if pkt.Flow.Src != sd.Watched {
			return
		}
		counterpart = pkt.Flow.Dst
	case ModeDDoSVictim:
		if pkt.Flow.Dst != sd.Watched {
			return
		}
		counterpart = pkt.Flow.Src
	default:
		return
	}
	sd.voice.Play(sd.freqs[sd.BucketOf(counterpart)])
}

// Start begins interval accounting on the controller's clock.
func (sd *SpreadDetector) Start(ctrl *Controller, at float64) {
	ctrl.SubscribeWindows(sd.HandleWindow)
	ctrl.Sim().Every(at+sd.Interval, sd.Interval, func(now float64) {
		sd.closeInterval(now)
	})
}

// HandleWindow consumes one detection window.
func (sd *SpreadDetector) HandleWindow(_ float64, dets []Detection) {
	for _, det := range sd.onset.Step(dets) {
		for _, f := range sd.freqs {
			if f == det.Frequency {
				sd.distinct.Observe(FreqKey(f))
				break
			}
		}
	}
}

func (sd *SpreadDetector) closeInterval(now float64) {
	distinct := sd.distinct.Distinct()
	sd.History = appendBounded(sd.History, netsim.Sample{Time: now, Value: float64(distinct)},
		historyMax, &sd.HistoryDropped)
	if distinct > sd.K {
		sd.events++
		sd.Alerts = appendBounded(sd.Alerts, SpreadAlert{Time: now, Distinct: distinct},
			historyMax, &sd.HistoryDropped)
	}
	sd.distinct.Reset()
}

// Instrument exposes the detector's counters under
// app="spread-<mode>", switch=switchName.
func (sd *SpreadDetector) Instrument(reg *telemetry.Registry, switchName string) {
	app := "spread-" + sd.Mode.String()
	reg.Func(appLabels(metricAppOnsets, app, switchName),
		func() float64 { return float64(sd.onset.Onsets) })
	reg.Func(appLabels(metricAppEvents, app, switchName),
		func() float64 { return float64(sd.events) })
	reg.Func(appLabels(metricAppHistoryDropped, app, switchName),
		func() float64 { return float64(sd.HistoryDropped) })
	instrumentSketchDistinct(reg, app, switchName, sd.distinct)
}
