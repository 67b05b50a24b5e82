package core

import (
	"errors"
	"math"

	"mdn/internal/acoustic"
	"mdn/internal/dsp"
)

// FanMonitor is the Section 7 passive application: it listens to a
// server's cooling fan, learns the FFT amplitudes of the fan's
// harmonic frequencies while the fan is known healthy, and later
// compares fresh captures against that baseline. The paper's
// observation (Figure 7): the amplitude difference between an
// on-recording and an off-recording is considerably larger than
// between two on-recordings, even under datacenter noise.
type FanMonitor struct {
	// Harmonics are the fan frequencies to watch (blade-pass
	// fundamental and overtones).
	Harmonics []float64

	mic *acoustic.Microphone

	baseline []float64 // per-harmonic amplitude
	trained  bool
}

// Fan-monitor settings.
const (
	// fanWindow is the analysis window length in seconds.
	fanWindow = 0.5
	// fanAlertRatio is the failure criterion: alert when the mean
	// relative amplitude drop across harmonics exceeds this fraction
	// of the baseline (0.5 = harmonics lost half their amplitude).
	fanAlertRatio = 0.5
)

// ErrNotTrained reports a check before training.
var ErrNotTrained = errors.New("core: fan monitor has no baseline; call Train first")

// NewFanMonitor builds a monitor for the given harmonic stack on the
// given microphone.
func NewFanMonitor(mic *acoustic.Microphone, harmonics []float64) *FanMonitor {
	h := make([]float64, len(harmonics))
	copy(h, harmonics)
	return &FanMonitor{
		Harmonics: h,
		mic:       mic,
	}
}

// amplitudes measures the per-harmonic amplitude over [from, to),
// averaging window-sized chunks. The harmonic stack is evaluated as
// one planned Goertzel bank per chunk.
func (fm *FanMonitor) amplitudes(from, to float64) []float64 {
	out := make([]float64, len(fm.Harmonics))
	windows := 0
	var gplan *dsp.GoertzelPlan
	var mags []float64
	for t := from; t+fanWindow <= to+1e-9; t += fanWindow {
		buf := fm.mic.Capture(t, t+fanWindow)
		n := float64(buf.Len())
		if n == 0 {
			continue
		}
		if gplan == nil || gplan.SampleRate != buf.SampleRate {
			gplan = dsp.NewGoertzelPlan(fm.Harmonics, buf.SampleRate)
		}
		mags = gplan.MagnitudesInto(mags, buf.Samples)
		for i, m := range mags {
			out[i] += 2 * m / n
		}
		windows++
	}
	if windows > 0 {
		for i := range out {
			out[i] /= float64(windows)
		}
	}
	return out
}

// Train learns the healthy-fan baseline from [from, to). The interval
// must hold at least one analysis window.
func (fm *FanMonitor) Train(from, to float64) error {
	if to-from < fanWindow {
		return errors.New("core: training interval shorter than one analysis window")
	}
	fm.baseline = fm.amplitudes(from, to)
	fm.trained = true
	return nil
}

// Baseline returns the learned per-harmonic amplitudes (nil before
// training).
func (fm *FanMonitor) Baseline() []float64 {
	if !fm.trained {
		return nil
	}
	out := make([]float64, len(fm.baseline))
	copy(out, fm.baseline)
	return out
}

// Score measures [from, to) and returns the mean relative amplitude
// drop across harmonics versus the baseline: 0 for a healthy fan,
// approaching 1 when the harmonics vanish. Negative drops (louder
// than baseline) clamp to 0 per harmonic.
func (fm *FanMonitor) Score(from, to float64) (float64, error) {
	if !fm.trained {
		return 0, ErrNotTrained
	}
	now := fm.amplitudes(from, to)
	var sum float64
	var counted int
	for i, base := range fm.baseline {
		if base <= 0 {
			continue
		}
		drop := (base - now[i]) / base
		if drop < 0 {
			drop = 0
		}
		sum += drop
		counted++
	}
	if counted == 0 {
		return 0, errors.New("core: baseline has no usable harmonics")
	}
	return sum / float64(counted), nil
}

// Check reports whether the fan appears failed over [from, to),
// together with the score.
func (fm *FanMonitor) Check(from, to float64) (failed bool, score float64, err error) {
	score, err = fm.Score(from, to)
	if err != nil {
		return false, 0, err
	}
	return score >= fanAlertRatio, score, nil
}

// AmplitudeDiff computes the paper's Figure 7 statistic directly: the
// mean absolute per-harmonic FFT amplitude difference between two
// captures, in dB relative to the first capture's mean amplitude.
func (fm *FanMonitor) AmplitudeDiff(fromA, toA, fromB, toB float64) float64 {
	a := fm.amplitudes(fromA, toA)
	b := fm.amplitudes(fromB, toB)
	var diff, ref float64
	for i := range a {
		diff += math.Abs(a[i] - b[i])
		ref += a[i]
	}
	if ref <= 0 {
		return 0
	}
	return diff / ref
}
