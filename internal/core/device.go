package core

import (
	"math"

	"mdn/internal/acoustic"
	"mdn/internal/audio"
	"mdn/internal/dsp"
	"mdn/internal/telemetry"
)

// This file is the device-health layer: the fan-fail ladder of
// fandiag.go generalised to MDN's own hardware. A DeviceMonitor rides
// the controller's window loop, fingerprints every microphone and
// speaker from the emissions it already analyses, classifies each
// device healthy / drifting / deaf / detuned / silent, and heals what
// it can:
//
//   - drift      — a microphone's bin-level noise floor is tracked with
//                  an EWMA; when it climbs, the microphone's detection
//                  threshold is recalibrated above it (with hysteresis)
//                  instead of letting noise masquerade as tones. The
//                  acoustic plane's CullAuto floor recalibrates on its
//                  own (it reads the effective self-noise, see
//                  acoustic.Room.cullFloorAt).
//   - deafness   — a microphone that keeps missing tones its fleet
//                  peers hear is quarantined: dropped from the fleet
//                  fan-out (batch and streaming) so it cannot dilute
//                  merges, then probed on the side until it hears
//                  again, at which point it rejoins (hysteresis on
//                  both edges).
//   - detuning   — a speaker whose trained frequencies fall silent is
//                  probed across a detune grid; when its tone is found
//                  shifted, the controller re-keys: the shifted
//                  frequency is watched and detections on it are
//                  rewritten back to the commanded frequency before
//                  dispatch, so applications keep working unmodified.
//                  When the original frequency returns, the rewrite is
//                  retired.
//   - silence    — a speaker probe that finds nothing mutes the
//                  registered Voice: a dead driver stops burning the
//                  shared acoustic channel.
//
// Everything the monitor consumes is produced by the window loop it
// already rides — per-microphone amplitude estimates and the merged
// detections — so the steady-state path allocates nothing; probes and
// re-keys are event-driven and may allocate.

// DeviceState classifies one monitored device.
type DeviceState int

// Device states. Microphones move between Healthy, Drifting (noise
// floor recalibrated) and Deaf (quarantined); speakers between
// Healthy, Detuned (re-keyed) and Silent (muted).
const (
	DeviceHealthy DeviceState = iota
	DeviceDrifting
	DeviceDeaf
	DeviceDetuned
	DeviceSilent
)

// String names the state.
func (s DeviceState) String() string {
	switch s {
	case DeviceHealthy:
		return "healthy"
	case DeviceDrifting:
		return "drifting"
	case DeviceDeaf:
		return "deaf"
	case DeviceDetuned:
		return "detuned"
	case DeviceSilent:
		return "silent"
	default:
		return "unknown"
	}
}

// DeviceHealth is one device's row in a health snapshot or chaos
// report. Fields are deterministic functions of the simulated run, so
// reports embedding them keep their byte-identity contracts.
type DeviceHealth struct {
	// Name identifies the device; Kind is "mic" or "speaker".
	Name string `json:"name"`
	Kind string `json:"kind"`
	// State is the current classification.
	State string `json:"state"`
	// NoiseFloor is the microphone's EWMA bin-noise estimate (linear
	// amplitude); Floor is its recalibrated detection threshold (0 =
	// the detector default applies).
	NoiseFloor float64 `json:"noise_floor,omitempty"`
	Floor      float64 `json:"floor,omitempty"`
	// Quarantined reports a microphone currently out of the fan-out.
	Quarantined bool `json:"quarantined,omitempty"`
	// DetuneRatio is the active re-key ratio of a detuned speaker
	// (emitted/commanded frequency); Muted reports a silenced voice.
	DetuneRatio float64 `json:"detune_ratio,omitempty"`
	Muted       bool    `json:"muted,omitempty"`
	// Lifetime event counts: state transitions, threshold
	// recalibrations, quarantine entries and rejoins, re-keys.
	Transitions    uint64 `json:"transitions,omitempty"`
	Recalibrations uint64 `json:"recalibrations,omitempty"`
	Quarantines    uint64 `json:"quarantines,omitempty"`
	Rejoins        uint64 `json:"rejoins,omitempty"`
	Rekeys         uint64 `json:"rekeys,omitempty"`
}

// micTracker is one microphone's drift/deafness state. The per-window
// observation fields (obs*) are written by whichever goroutine
// analysed the microphone this window — workers own disjoint
// microphones within a window, and the fleet's done count orders their
// writes before the driver's fold — everything else belongs to the
// driver goroutine.
type micTracker struct {
	name string
	mic  *acoustic.Microphone

	obsMin      float64 // min per-watch amplitude this window (bin noise proxy)
	obsDetected bool
	observed    bool

	// noiseRing holds the last few windows' obsMin; the noise estimate
	// folds the ring MEDIAN, not the raw observation. With a short
	// watch list a window carrying a tone has no quiet bin to read, so
	// its obsMin is the tone's amplitude — but beats occupy a minority
	// of any span of a few windows, and the median reads the noise
	// level from the inter-beat silences. (The minimum would be robust
	// to tones too, but the min of several Rayleigh-distributed bin
	// readings sits far below the mean, so a margin over it lands
	// inside the noise distribution and the floor never separates.)
	noiseRing [noiseRingWindows]float64
	ringN     int

	ewma       float64 // EWMA of the ring median: the bin-level noise estimate
	seeded     bool
	floor      float64 // recalibrated absolute threshold; 0 = detector default
	missStreak int     // consecutive windows peers heard tones and this mic did not
	probeHits  int     // consecutive successful quarantine probes

	state       DeviceState
	quarantined bool

	transitions    uint64
	recalibrations uint64
	quarantines    uint64
	rejoins        uint64
}

// speakerTracker is one registered speaker's fingerprint state.
type speakerTracker struct {
	name    string
	voice   *Voice
	freqs   []float64           // commanded frequencies
	shifted []float64           // active re-key frequencies, paired with freqs; nil in tune
	level   map[float64]float64 // EWMA detected level per commanded frequency

	trainCount   int
	silentStreak int
	probeMisses  int
	healStreak   int
	ratio        float64 // active detune ratio; 1 when in tune

	state       DeviceState
	transitions uint64
	rekeys      uint64
}

// Device-monitor settings.
const (
	// noiseAlpha is the EWMA smoothing factor of the per-microphone
	// bin-noise estimate and of each speaker's trained level.
	noiseAlpha = 0.3
	// noiseMargin sets the recalibrated threshold to margin × the
	// noise estimate: tones must clear the noise floor by 12 dB.
	noiseMargin = 4
	// recalBand is the hysteresis band: an established floor moves
	// only when the candidate differs by more than this fraction.
	// Every move is one recalibration event.
	recalBand = 0.25
	// silentWindows triggers a speaker probe after this many
	// consecutive windows without any of its trained frequencies, and
	// mutes a speaker after this many probes that heard nothing.
	silentWindows = 20
	// deafWindows quarantines a microphone after this many consecutive
	// windows in which the fleet heard tones and it heard nothing.
	// Keep it above the fleet's longest inter-beat gap in windows:
	// while a drifting microphone's noise still reads as detections
	// (the transient before its floor recalibrates), every window looks
	// like a tone window, and healthy microphones accrue misses across
	// the real silences.
	deafWindows = 8
	// probeEvery probes each quarantined microphone every N windows.
	probeEvery = 2
	// rejoinHits rejoins a quarantined microphone after this many
	// consecutive successful probes, and retires a speaker re-key
	// after this many windows with the commanded frequency back.
	rejoinHits = 3
	// maxDetuneRatio bounds the detune search to commanded × (1 ±
	// ratio); detuneStep is the grid step.
	maxDetuneRatio = 0.06
	detuneStep     = 0.005
	// minLevelRatio is the fingerprint match floor: a detection of a
	// speaker's commanded frequency counts as sound from that speaker
	// only at or above this fraction of its trained level. Below it is
	// noise or leakage remnants.
	minLevelRatio = 0.35
	// strongLevelRatio splits the audible band in two: at or above
	// this fraction of the trained level a hit is STRONG — the speaker
	// is verifiably in tune at its fingerprinted volume, and the level
	// EWMA trains. Between minLevelRatio and this, a hit is WEAK: a
	// partial-window beat, a quieter driver, or spectral leakage of a
	// detuned tone into the commanded bin — which at low frequencies
	// runs ~40% of the tone (400 Hz detuned 4% sits only 0.8
	// window-cycles off its bin), far above any absolute floor. Weak
	// hits never train: training on leakage walks the fingerprint down
	// onto it and blinds the detune detector.
	strongLevelRatio = 0.7
	// tuneFactor is the probe's dominance test: a shifted grid peak
	// re-keys the speaker only when it exceeds tuneFactor × the
	// commanded bins' own amplitude. An in-tune tone leaks nearly
	// full-strength onto adjacent grid ratios, so absolute level alone
	// cannot distinguish "detuned" from "merely quieter" — dominance
	// can.
	tuneFactor = 1.5
)

// DeviceMonitor watches the controller's microphones and registered
// speakers for degradation and heals what it can. Build one with
// Controller.EnableDeviceMonitor after the fleet's microphones are
// registered; drive is automatic (the controller folds every analysed
// window into it).
type DeviceMonitor struct {
	ctrl     *Controller
	mics     []*micTracker
	speakers []*speakerTracker
	rewrite  map[float64]float64 // shifted → commanded frequency
	detected map[float64]float64 // this window's detected freq → max amplitude
	windows  uint64

	probeDet  *Detector // quarantine-probe detector clone
	probeRev  uint64
	probeBuf  *audio.Buffer
	probeAmps []float64 // probe per-frequency commanded-bin scratch
	sortTmp   []Detection

	transitions    uint64
	recalibrations uint64
	quarantines    uint64
	rejoins        uint64
	rekeys         uint64

	reg *telemetry.Registry
}

// EnableDeviceMonitor attaches a device-health monitor to the
// controller: every microphone of its fleet at call time is tracked
// for noise drift and deafness, and speakers registered afterwards
// with WatchSpeaker are tracked for detuning and silence. Call after
// EnableFleet and after all microphones are registered; returns the
// monitor for speaker registration.
func (c *Controller) EnableDeviceMonitor() *DeviceMonitor {
	m := &DeviceMonitor{
		ctrl:     c,
		rewrite:  make(map[float64]float64),
		detected: make(map[float64]float64),
	}
	for _, mic := range c.fleet.mics {
		m.mics = append(m.mics, &micTracker{name: mic.Name, mic: mic})
	}
	c.fleet.mon = m
	c.devmon = m
	if c.tm.reg != nil {
		m.Instrument(c.tm.reg)
	}
	return m
}

// DeviceMonitor returns the controller's device-health monitor, or nil
// when none is enabled.
func (c *Controller) DeviceMonitor() *DeviceMonitor { return c.devmon }

// WatchSpeaker registers one speaker (by switch name) for fingerprint
// tracking: freqs are the frequencies it is commanded to emit. voice,
// when non-nil, is muted if the speaker goes silent beyond recovery.
func (m *DeviceMonitor) WatchSpeaker(name string, voice *Voice, freqs ...float64) {
	fs := make([]float64, len(freqs))
	copy(fs, freqs)
	t := &speakerTracker{
		name: name, voice: voice, freqs: fs,
		level: make(map[float64]float64), ratio: 1,
	}
	m.speakers = append(m.speakers, t)
	m.instrumentSpeaker(t)
}

// ObserveMic records one microphone's per-window analysis product: the
// minimum per-watch amplitude (the quietest watched bin is a bin-level
// noise estimate — tones occupy at most a few bins) and whether
// anything was detected. Called by whichever goroutine analysed the
// microphone; the fold into the EWMA happens on the driver in
// finishWindow, so a window re-run (stale watch retry) just overwrites
// the observation.
func (m *DeviceMonitor) ObserveMic(i int, windowStart float64, dets []Detection, amps []float64) {
	if i >= len(m.mics) || len(amps) == 0 {
		return
	}
	min := amps[0]
	for _, a := range amps[1:] {
		if a < min {
			min = a
		}
	}
	t := m.mics[i]
	t.obsMin = min
	t.obsDetected = len(dets) > 0
	t.observed = true
}

// floorFor returns the effective absolute detection threshold for
// microphone i: the recalibrated per-microphone floor when it exceeds
// the detector default def. Read by analysis goroutines mid-window;
// written only by the driver between windows.
func (m *DeviceMonitor) floorFor(i int, def float64) float64 {
	if i < len(m.mics) && m.mics[i].floor > def {
		return m.mics[i].floor
	}
	return def
}

// activeMics counts microphones currently in the fan-out.
func (m *DeviceMonitor) activeMics() int {
	n := 0
	for _, t := range m.mics {
		if !t.quarantined {
			n++
		}
	}
	return n
}

// MicsQuarantined counts microphones currently out of the fan-out.
func (m *DeviceMonitor) MicsQuarantined() int {
	return len(m.mics) - m.activeMics()
}

// finishWindow folds one analysed window into the monitor on the
// driver goroutine: noise EWMAs and threshold recalibration, the
// deafness ladder and quarantine probes, speaker fingerprints with
// detune probes, and finally the re-key rewrite of the detections
// about to be dispatched. It returns the (possibly rewritten and
// re-sorted) detections. Steady state allocates nothing; probes and
// re-keys are event-driven.
func (m *DeviceMonitor) finishWindow(from, to float64, dets []Detection) []Detection {
	m.windows++

	// This window's detected frequencies (pre-rewrite: a re-keyed
	// speaker shows up at its shifted frequency here).
	for k := range m.detected {
		delete(m.detected, k)
	}
	for _, d := range dets {
		if d.Amplitude > m.detected[d.Frequency] {
			m.detected[d.Frequency] = d.Amplitude
		}
	}
	anyDetected := len(dets) > 0

	for i, t := range m.mics {
		if t.quarantined {
			m.probeQuarantined(i, t, from, to, anyDetected)
			continue
		}
		if !t.observed {
			continue
		}
		t.observed = false
		m.foldNoise(t, t.obsMin)
		m.recalibrate(t)
		if t.obsDetected {
			t.missStreak = 0
		} else if anyDetected {
			t.missStreak++
		}
		if t.missStreak >= deafWindows && m.activeMics() > 1 {
			m.quarantine(i, t)
		}
		m.classifyMic(t)
	}

	for _, t := range m.speakers {
		m.observeSpeaker(t, from, to)
	}

	if len(m.rewrite) > 0 && len(dets) > 0 {
		changed := false
		for i := range dets {
			if orig, ok := m.rewrite[dets[i].Frequency]; ok {
				dets[i].Frequency = orig
				changed = true
			}
		}
		if changed {
			// Rewriting can break the (time, frequency) dispatch order;
			// restore it so subscribers keep the ordered-batch contract.
			if cap(m.sortTmp) < len(dets) {
				m.sortTmp = make([]Detection, len(dets))
			}
			sortDetections(dets, m.sortTmp[:len(dets)])
		}
	}
	return dets
}

// noiseRingWindows spans the median filter that separates tones from
// noise in the per-window observations: 8 windows (400 ms at the
// default 50 ms window) holds a majority of inter-beat silences for
// heartbeat-style traffic (a 65 ms tone every 300 ms covers 2 windows
// in 6). A voice sounding in EVERY window would defeat the filter —
// the assumption is MDN's own pacing, where VoiceMinGap forces
// silence between same-frequency tones.
const noiseRingWindows = 8

// foldNoise advances one microphone's EWMA bin-noise estimate from the
// (lower) median of its recent per-window observations.
func (m *DeviceMonitor) foldNoise(t *micTracker, v float64) {
	t.noiseRing[t.ringN%noiseRingWindows] = v
	t.ringN++
	n := t.ringN
	if n > noiseRingWindows {
		n = noiseRingWindows
	}
	var s [noiseRingWindows]float64
	copy(s[:], t.noiseRing[:n])
	for i := 1; i < n; i++ {
		x := s[i]
		j := i - 1
		for j >= 0 && s[j] > x {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = x
	}
	med := s[(n-1)/2]
	if !t.seeded {
		t.ewma = med
		t.seeded = true
		return
	}
	t.ewma += float64(noiseAlpha * (med - t.ewma))
}

// recalibrate moves one microphone's absolute detection threshold to
// noiseMargin × its noise estimate when that exceeds the detector
// default, with a hysteresis band so a floor in steady state never
// churns. Each move is one recalibration event.
func (m *DeviceMonitor) recalibrate(t *micTracker) {
	base := m.ctrl.Detector.MinAmplitude
	cand := float64(noiseMargin * t.ewma)
	if cand <= base {
		if t.floor != 0 {
			t.floor = 0
			t.recalibrations++
			m.recalibrations++
		}
		return
	}
	if t.floor == 0 || math.Abs(cand-t.floor) > float64(recalBand*t.floor) {
		t.floor = cand
		t.recalibrations++
		m.recalibrations++
	}
}

// quarantine drops microphone i from the fan-out.
func (m *DeviceMonitor) quarantine(i int, t *micTracker) {
	t.quarantined = true
	t.missStreak = 0
	t.probeHits = 0
	m.ctrl.fleet.SetQuarantined(i, true)
	t.quarantines++
	m.quarantines++
	m.classifyMic(t)
}

// probeQuarantined captures the quarantined microphone on the side
// every probeEvery windows: its noise estimate keeps tracking (so the
// floor recalibrates down once a noise fault clears), and a probe that
// hears a frequency the active fleet also heard counts toward rejoin.
func (m *DeviceMonitor) probeQuarantined(i int, t *micTracker, from, to float64, anyDetected bool) {
	t.observed = false
	if m.windows%probeEvery != 0 {
		return
	}
	// The microphone is out of the fan-out; probe it into the
	// monitor's own buffer.
	m.probeBuf = t.mic.CaptureInto(m.probeBuf, from, to)
	pd := m.probeDetector()
	minAmp := pd.MinAmplitude
	if t.floor > minAmp {
		minAmp = t.floor
	}
	pdets, pamps := pd.DetectCalibrated(m.probeBuf, from, minAmp)
	if len(pamps) == 0 {
		return
	}
	min := pamps[0]
	for _, a := range pamps[1:] {
		if a < min {
			min = a
		}
	}
	m.foldNoise(t, min)
	m.recalibrate(t)
	hit := false
	for _, d := range pdets {
		if _, ok := m.detected[d.Frequency]; ok {
			hit = true
			break
		}
	}
	if hit {
		t.probeHits++
	} else if anyDetected {
		// There were tones to hear and the probe missed them all.
		t.probeHits = 0
	}
	if t.probeHits >= rejoinHits {
		t.quarantined = false
		t.missStreak = 0
		t.probeHits = 0
		m.ctrl.fleet.SetQuarantined(i, false)
		t.rejoins++
		m.rejoins++
		m.classifyMic(t)
	}
}

// probeDetector returns the monitor's private detector clone, rebuilt
// when the controller's watch list moves.
func (m *DeviceMonitor) probeDetector() *Detector {
	d := m.ctrl.Detector
	if m.probeDet == nil || m.probeRev != d.WatchRev() {
		m.probeDet = d.Clone()
		m.probeRev = d.WatchRev()
	}
	return m.probeDet
}

// classifyMic rolls a microphone's flags into its state, counting
// transitions.
func (m *DeviceMonitor) classifyMic(t *micTracker) {
	var s DeviceState
	switch {
	case t.quarantined:
		s = DeviceDeaf
	case t.floor > 0:
		s = DeviceDrifting
	default:
		s = DeviceHealthy
	}
	if s != t.state {
		t.state = s
		t.transitions++
		m.transitions++
	}
}

// observeSpeaker advances one speaker's fingerprint: train levels from
// STRONG detections of its commanded frequencies, count suspect
// windows (silent or weak) once trained, probe for detune when the
// streak trips, and heal the re-key when the commanded frequency
// returns at full strength.
func (m *DeviceMonitor) observeSpeaker(t *speakerTracker, from, to float64) {
	// Classify this window's sound at the commanded frequencies.
	// Strong hits (>= strongLevelRatio × trained level) prove the
	// speaker in tune and train the EWMA; weak hits — a partial-window
	// beat, a quieter driver, or a detuned tone's leakage back into
	// the commanded bin — count as sound but never train, so leakage
	// cannot walk the fingerprint down onto itself.
	strongOrig, weakOrig := false, false
	for _, f := range t.freqs {
		a, ok := m.detected[f]
		if !ok {
			continue
		}
		lv, seen := t.level[f]
		if !seen {
			t.level[f] = a
			t.trainCount++
			strongOrig = true
			continue
		}
		if a < minLevelRatio*lv {
			continue // noise or leakage remnants: not this speaker
		}
		if a >= strongLevelRatio*lv {
			t.level[f] = lv + float64(noiseAlpha*(a-lv))
			t.trainCount++
			strongOrig = true
		} else {
			weakOrig = true
		}
	}
	heardShift, shiftAmp := false, 0.0
	for _, sh := range t.shifted {
		if a, ok := m.detected[sh]; ok {
			heardShift = true
			if a > shiftAmp {
				shiftAmp = a
			}
		}
	}

	switch t.state {
	case DeviceDetuned:
		// A tone leaks across the ~4% split both ways: while the fault
		// persists the shifted bin dominates and its leakage lights the
		// commanded bin; once the speaker is back in tune the commanded
		// bin dominates and lights the shifted one. Dominance, not
		// presence, decides which story this window tells.
		origAmp := 0.0
		for _, f := range t.freqs {
			if a := m.detected[f]; a > origAmp {
				origAmp = a
			}
		}
		switch {
		case strongOrig && origAmp > shiftAmp:
			t.healStreak++
			t.silentStreak = 0
		case heardShift && shiftAmp > origAmp:
			// The shifted bin dominates: still detuned.
			t.healStreak = 0
			t.silentStreak = 0
		case weakOrig || heardShift:
			// Ambiguous partial window (a tone tail leaks into both
			// bins): evidence of life, not of tuning either way.
			t.silentStreak = 0
		default:
			t.silentStreak++
		}
		if t.healStreak >= rejoinHits {
			m.healSpeaker(t)
			return
		}
		if t.silentStreak >= silentWindows {
			// The shifted tone vanished too: the speaker died after the
			// re-key. Retire the rewrite and mute.
			for _, sh := range t.shifted {
				delete(m.rewrite, sh)
			}
			t.shifted = t.shifted[:0]
			t.ratio = 1
			t.silentStreak = 0
			if t.voice != nil {
				t.voice.SetMuted(true)
			}
			m.setSpeakerState(t, DeviceSilent)
		}
	case DeviceSilent:
		if strongOrig || weakOrig {
			if t.voice != nil {
				t.voice.SetMuted(false)
			}
			m.setSpeakerState(t, DeviceHealthy)
		}
	default:
		if strongOrig {
			t.silentStreak = 0
			t.probeMisses = 0
		} else if t.trainCount >= 3 {
			// Weak windows count toward the streak: persistent sound at
			// the commanded bin that never matches the fingerprint is
			// exactly what a detuned speaker's leakage looks like.
			t.silentStreak++
		}
		if t.silentStreak < silentWindows {
			return
		}
		// Suspicion tripped: probe every window until a verdict lands —
		// the speaker beats only a fraction of the time, so a single
		// probe in a between-beat gap must not condemn it.
		switch m.probeSpeaker(t, from, to) {
		case probeRekeyed, probeInTune:
			t.silentStreak = 0
			t.probeMisses = 0
		case probeNothing:
			t.probeMisses++
			if t.probeMisses >= silentWindows {
				t.silentStreak = 0
				t.probeMisses = 0
				if t.voice != nil {
					t.voice.SetMuted(true)
				}
				m.setSpeakerState(t, DeviceSilent)
			}
		}
	}
}

// probeVerdict is one probe capture's outcome.
type probeVerdict int

const (
	// probeNothing: no audible energy at the commanded frequencies or
	// anywhere on the detune grid — a between-beat gap, or a dead
	// driver.
	probeNothing probeVerdict = iota
	// probeInTune: the commanded bins dominate — the speaker is in
	// tune, possibly quieter than its fingerprint.
	probeInTune
	// probeRekeyed: a shifted grid peak dominated the commanded bins
	// and the speaker was re-keyed.
	probeRekeyed
)

// probeSpeaker searches a reference capture for the suspect speaker's
// tones across the detune grid. A shifted peak that dominates the
// commanded bins by tuneFactor re-keys the speaker; audible energy
// that stays at the commanded frequencies retrains the fingerprint
// level instead (an aging driver playing quieter is not a fault).
func (m *DeviceMonitor) probeSpeaker(t *speakerTracker, from, to float64) probeVerdict {
	ref := -1
	for i, mt := range m.mics {
		if !mt.quarantined {
			ref = i
			break
		}
	}
	if ref < 0 {
		return probeNothing
	}
	m.probeBuf = m.mics[ref].mic.CaptureInto(m.probeBuf, from, to)
	buf := m.probeBuf
	n := buf.Len()
	if n == 0 {
		return probeNothing
	}
	// As in the detection filter, a floor relative to the window's
	// loudest detection holds too: a louder tone leaks onto the commanded
	// bins and the grid around them (a neighbour's beat tail put ~20 % of
	// its amplitude 80 Hz away), and that leakage is not this speaker.
	loudest := 0.0
	for _, a := range m.detected {
		loudest = math.Max(loudest, a)
	}
	minAmp := math.Max(m.floorFor(ref, m.ctrl.Detector.MinAmplitude), minLevelRatio*loudest)
	scale := 2 / float64(n)

	// The commanded bins are the baseline the grid must beat: an
	// in-tune tone leaks near full strength onto the adjacent grid
	// ratios, so absolute level alone cannot tell "detuned" from
	// "quieter" — dominance can.
	if cap(m.probeAmps) < len(t.freqs) {
		m.probeAmps = make([]float64, len(t.freqs))
	}
	probeAmps := m.probeAmps[:len(t.freqs)]
	commanded := 0.0
	for i, f := range t.freqs {
		probeAmps[i] = float64(dsp.Goertzel(buf.Samples, f, buf.SampleRate) * scale)
		commanded += probeAmps[i]
	}

	steps := int(math.Round(maxDetuneRatio / detuneStep))
	bestAmp, bestRatio := 0.0, 1.0
	for k := -steps; k <= steps; k++ {
		if k == 0 {
			continue // the in-tune baseline is measured above
		}
		r := 1 + float64(float64(k)*detuneStep)
		sum := 0.0
		for _, f := range t.freqs {
			sum += float64(dsp.Goertzel(buf.Samples, f*r, buf.SampleRate) * scale)
		}
		if sum > bestAmp {
			bestAmp, bestRatio = sum, r
		}
	}
	if bestAmp >= minAmp && bestAmp > tuneFactor*commanded {
		m.rekeySpeaker(t, bestRatio)
		return probeRekeyed
	}
	if commanded >= minAmp {
		// In tune but below the fingerprint: accept the new normal so
		// the speaker's beats classify strong again instead of probing
		// forever (or, worse, muting a merely quieter driver).
		for i, f := range t.freqs {
			if lv, seen := t.level[f]; seen && probeAmps[i] >= minAmp {
				t.level[f] = lv + float64(noiseAlpha*(probeAmps[i]-lv))
			}
		}
		return probeInTune
	}
	return probeNothing
}

// rekeySpeaker installs a re-key: the controller watches each
// commanded frequency shifted by ratio — the fleet picks the edit up
// at its next window, batch or streamed — and detections there are
// rewritten back before dispatch.
func (m *DeviceMonitor) rekeySpeaker(t *speakerTracker, ratio float64) {
	t.shifted = t.shifted[:0]
	for _, f := range t.freqs {
		sh := f * ratio
		t.shifted = append(t.shifted, sh)
		m.rewrite[sh] = f
	}
	m.ctrl.Detector.AddWatch(t.shifted...)
	t.ratio = ratio
	t.healStreak = 0
	t.rekeys++
	m.rekeys++
	m.setSpeakerState(t, DeviceDetuned)
}

// healSpeaker retires an active re-key: the commanded frequency is
// back, so the rewrite entries go and the speaker is healthy again.
// The shifted frequencies stay on the watch list (watches are
// append-only) but are no longer rewritten.
func (m *DeviceMonitor) healSpeaker(t *speakerTracker) {
	for _, sh := range t.shifted {
		delete(m.rewrite, sh)
	}
	t.shifted = t.shifted[:0]
	t.ratio = 1
	t.healStreak = 0
	m.setSpeakerState(t, DeviceHealthy)
}

func (m *DeviceMonitor) setSpeakerState(t *speakerTracker, s DeviceState) {
	if s != t.state {
		t.state = s
		t.transitions++
		m.transitions++
	}
}

// Snapshot returns every tracked device's health row, microphones in
// fleet registration order first, then speakers in registration order
// — a deterministic serialisation for reports.
func (m *DeviceMonitor) Snapshot() []DeviceHealth {
	out := make([]DeviceHealth, 0, len(m.mics)+len(m.speakers))
	for _, t := range m.mics {
		out = append(out, DeviceHealth{
			Name: t.name, Kind: "mic", State: t.state.String(),
			NoiseFloor: t.ewma, Floor: t.floor, Quarantined: t.quarantined,
			Transitions: t.transitions, Recalibrations: t.recalibrations,
			Quarantines: t.quarantines, Rejoins: t.rejoins,
		})
	}
	for _, t := range m.speakers {
		h := DeviceHealth{
			Name: t.name, Kind: "speaker", State: t.state.String(),
			Transitions: t.transitions, Rekeys: t.rekeys,
		}
		if t.state == DeviceDetuned {
			h.DetuneRatio = t.ratio
		}
		if t.voice != nil {
			h.Muted = t.voice.Muted()
		}
		out = append(out, h)
	}
	return out
}

// Instrument exposes the monitor's devices and event counters under
// the mdn_device_* names: a per-device state gauge, per-microphone
// noise-floor gauges, and the aggregate transition / recalibration /
// quarantine / rejoin / re-key counters. All are func-backed reads of
// driver-owned state, so the hot path carries no extra updates.
// EnableDeviceMonitor calls it automatically on an instrumented
// controller; speakers registered later are instrumented as they
// arrive.
func (m *DeviceMonitor) Instrument(reg *telemetry.Registry) {
	m.reg = reg
	for _, t := range m.mics {
		t := t
		reg.Func(telemetry.Label(metricDeviceState, "kind", "mic", "name", t.name),
			func() float64 { return float64(t.state) })
		reg.Func(telemetry.Label(metricDeviceNoiseFloor, "mic", t.name),
			func() float64 { return t.ewma })
	}
	for _, t := range m.speakers {
		m.instrumentSpeaker(t)
	}
	reg.Func(metricDeviceTransitions, func() float64 { return float64(m.transitions) })
	reg.Func(metricDeviceRecalibrations, func() float64 { return float64(m.recalibrations) })
	reg.Func(metricDeviceQuarantines, func() float64 { return float64(m.quarantines) })
	reg.Func(metricDeviceRejoins, func() float64 { return float64(m.rejoins) })
	reg.Func(metricDeviceRekeys, func() float64 { return float64(m.rekeys) })
}

func (m *DeviceMonitor) instrumentSpeaker(t *speakerTracker) {
	if m.reg == nil {
		return
	}
	t2 := t
	m.reg.Func(telemetry.Label(metricDeviceState, "kind", "speaker", "name", t.name),
		func() float64 { return float64(t2.state) })
}
