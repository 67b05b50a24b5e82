package core

import (
	"math"
	"sync"
	"sync/atomic"

	"mdn/internal/audio"
	"mdn/internal/dsp"
)

// Method selects how the detector inspects a capture window.
type Method int

// Detection methods.
const (
	// MethodGoertzel evaluates one Goertzel filter per watched
	// frequency — cheap when the watch list is small.
	MethodGoertzel Method = iota
	// MethodFFT computes one windowed FFT per capture and reads the
	// watched bins — cheaper when the watch list is large (the
	// paper's Figure 2 uses the FFT).
	MethodFFT
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodGoertzel:
		return "goertzel"
	case MethodFFT:
		return "fft"
	default:
		return "unknown"
	}
}

// Detection is one tone observed in a capture window.
type Detection struct {
	// Time is the start of the capture window, in seconds.
	Time float64
	// Frequency is the watched frequency that fired, in Hz.
	Frequency float64
	// Amplitude is the estimated linear tone amplitude at the
	// microphone.
	Amplitude float64
}

// Detector finds watched frequencies in capture windows. The zero
// value is unusable; construct with NewDetector.
type Detector struct {
	// Method selects Goertzel or FFT analysis.
	Method Method
	// MinAmplitude is the detection threshold: estimated tone
	// amplitude at the microphone below this is noise.
	MinAmplitude float64
	// ToleranceHz is how far (in Hz) a spectral peak may sit from a
	// watched frequency and still count (FFT method only; Goertzel
	// evaluates the exact frequency).
	ToleranceHz float64
	// RelativeFloor rejects watched frequencies whose amplitude is
	// below this fraction of the loudest watched frequency in the
	// same window. It suppresses spectral leakage from loud tones
	// (a rectangular window's first sidelobes sit near -13 dB) at
	// the cost of masking tones more than 1/RelativeFloor quieter
	// than a simultaneous loud one.
	RelativeFloor float64

	// mu guards the watch list (and the analysis that reads it), so
	// AddWatch is safe from any goroutine at any time — including
	// mid-window, where it simply waits for the in-flight Detect. The
	// lock is uncontended in steady state: one Lock/Unlock pair per
	// window.
	mu    sync.Mutex
	watch []float64
	// watchRev counts watch-list edits; Fleet snapshots it at fan-out
	// and re-checks it at merge to detect a mid-window edit (see
	// Fleet.Analyse). Atomic so the check never races the edit.
	watchRev atomic.Uint64

	// Reused scratch: the controller calls Detect once per 50 ms
	// window forever, so steady-state detection must not allocate.
	// A Detector is therefore not safe for concurrent use; give
	// each goroutine its own (the FFT plans they share underneath
	// are concurrency-safe).
	gplan *dsp.GoertzelPlan // rebuilt when watch list or rate changes
	amps  []float64
	mags  []float64
	out   []Detection
	// fftScr is detector-owned FFT workspace. The plan's default
	// pooled scratch lives in a sync.Pool the GC may clear between
	// 50 ms windows, which would make "steady state" re-allocate
	// ~100 KB under heap pressure; owning the scratch pins the
	// zero-alloc guarantee.
	fftScr dsp.FFTScratch
}

// DefaultMinAmplitude corresponds to a 30 dB SPL tone — the paper's
// quietest — heard from 2 m, with 6 dB of margin.
const DefaultMinAmplitude = 2.5e-4

// NewDetector builds a detector watching the given frequencies.
func NewDetector(method Method, watch []float64) *Detector {
	w := make([]float64, len(watch))
	copy(w, watch)
	return &Detector{
		Method:        method,
		MinAmplitude:  DefaultMinAmplitude,
		ToleranceHz:   DefaultSpacing / 2,
		RelativeFloor: 0.15,
		watch:         w,
	}
}

// Watch returns the watched frequencies.
func (d *Detector) Watch() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]float64, len(d.watch))
	copy(out, d.watch)
	return out
}

// WatchLen returns the number of watched frequencies.
func (d *Detector) WatchLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.watch)
}

// WatchRev returns the watch-list revision: it increments on every
// AddWatch. Fleet snapshots it before fanning a window out and
// re-checks it at merge, so an edit landing mid-window is detected
// rather than half-applied.
func (d *Detector) WatchRev() uint64 { return d.watchRev.Load() }

// AddWatch extends the watch list. It is safe from any goroutine at
// any time; an addition landing mid-window takes effect at the next
// window.
func (d *Detector) AddWatch(freqs ...float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.watch = append(d.watch, freqs...)
	d.gplan = nil // coefficients are stale
	d.watchRev.Add(1)
}

// Clone returns an independent detector with the same configuration
// and watch list. Detection scratch is not shared: a Detector is not
// safe for concurrent use, so concurrent analysis (the fleet path)
// gives each worker its own clone. The DSP plans the clones build
// underneath come from the process-wide plan cache, which is
// concurrency-safe — plans are shared, scratch is not.
func (d *Detector) Clone() *Detector {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := make([]float64, len(d.watch))
	copy(w, d.watch)
	c := &Detector{
		Method:        d.Method,
		MinAmplitude:  d.MinAmplitude,
		ToleranceHz:   d.ToleranceHz,
		RelativeFloor: d.RelativeFloor,
		watch:         w,
	}
	c.watchRev.Store(d.watchRev.Load())
	return c
}

// Detect analyses one capture window and returns the watched tones
// present in it, in watch-list order. windowStart stamps the
// detections.
//
// The returned slice is scratch owned by the detector, valid until
// the next Detect call; copy it to retain detections across windows.
func (d *Detector) Detect(buf *audio.Buffer, windowStart float64) []Detection {
	dets, _ := d.DetectCalibrated(buf, windowStart, d.MinAmplitude)
	return dets
}

// DetectCalibrated is Detect with an explicit absolute threshold and
// the raw per-watch amplitude estimates exposed: the device-health
// monitor's entry point. A recalibrated per-microphone floor replaces
// MinAmplitude (pass d.MinAmplitude to reproduce Detect bit-exactly),
// and the amplitudes feed the monitor's fingerprints and noise-floor
// trackers without a second analysis pass.
//
// Both returned slices are detector scratch, valid until the next
// analysis call on this detector.
func (d *Detector) DetectCalibrated(buf *audio.Buffer, windowStart, minAmp float64) ([]Detection, []float64) {
	if buf == nil || buf.Len() == 0 {
		return nil, nil
	}
	// Holding the watch lock across the whole analysis makes each
	// window atomic with respect to AddWatch: an edit either precedes
	// the window entirely or waits for the next one.
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.watch) == 0 {
		return nil, nil
	}
	amps := d.amplitudes(buf)
	// Keep what clears both the absolute floor and the relative floor (a
	// fraction of the loudest watched frequency in the window).
	maxAmp := 0.0
	for _, a := range amps {
		if a > maxAmp {
			maxAmp = a
		}
	}
	floor := minAmp
	if rel := d.RelativeFloor * maxAmp; rel > floor {
		floor = rel
	}
	d.out = d.out[:0]
	for i, a := range amps {
		if a >= floor {
			d.out = append(d.out, Detection{Time: windowStart, Frequency: d.watch[i], Amplitude: a})
		}
	}
	if len(d.out) == 0 {
		return nil, amps
	}
	return d.out, amps
}

// amplitudes computes the per-watch pre-threshold amplitude estimates
// of one window — the raw material of both the threshold filter and
// the stream's edge dedup (which needs sub-threshold values for its
// release hysteresis). The caller holds d.mu; the returned slice is
// detector scratch.
func (d *Detector) amplitudes(buf *audio.Buffer) []float64 {
	switch d.Method {
	case MethodFFT:
		return d.ampsFFT(buf)
	default:
		return d.ampsGoertzel(buf)
	}
}

func (d *Detector) ampsGoertzel(buf *audio.Buffer) []float64 {
	if d.gplan == nil || d.gplan.SampleRate != buf.SampleRate {
		d.gplan = dsp.NewGoertzelPlan(d.watch, buf.SampleRate)
	}
	d.amps = d.gplan.MagnitudesInto(d.amps, buf.Samples)
	// A sinusoid of amplitude A spanning the whole window yields a
	// Goertzel magnitude of A*n/2.
	scale := 2 / float64(buf.Len())
	for i := range d.amps {
		d.amps[i] *= scale
	}
	return d.amps
}

func (d *Detector) ampsFFT(buf *audio.Buffer) []float64 {
	n := buf.Len()
	fftSize := dsp.NextPowerOfTwo(n)
	plan := dsp.PlanFFT(fftSize)
	mags := plan.WindowedSpectrumScratch(d.mags, buf.Samples, dsp.Hann, &d.fftScr)
	d.mags = mags
	d.amps = growFloats(d.amps, len(d.watch))
	// Each watched frequency's amplitude is the peak bin within
	// ToleranceHz, rescaled by the window's coherent gain: the FFT bin
	// magnitude of a full-window sinusoid is A*n*gain/2.
	gain := dsp.Hann.Gain(n)
	span := int(math.Ceil(d.ToleranceHz / dsp.BinResolution(fftSize, buf.SampleRate)))
	for i, f := range d.watch {
		center := dsp.FrequencyBin(f, fftSize, buf.SampleRate)
		best := 0.0
		for k := center - span; k <= center+span; k++ {
			if k >= 0 && k < len(mags) && mags[k] > best {
				best = mags[k]
			}
		}
		d.amps[i] = 2 * best / (float64(n) * gain)
	}
	return d.amps
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// OnsetFilter turns per-window presence into confirmed tone events: a
// frequency must be present for ConfirmWindows consecutive windows to
// fire once, and must then fall silent for HoldWindows windows before
// it may fire again. MDN applications count tones, not windows, so
// nearly every app wraps the controller's detections in one of these.
//
// The confirmation requirement is what rejects tone-onset splatter:
// the first few milliseconds of any tone look impulse-like and excite
// every watched frequency in that boundary window, but only the true
// frequency stays present in the next one.
type OnsetFilter struct {
	// ConfirmWindows is how many consecutive windows a frequency
	// must be present before the onset fires (default 2).
	ConfirmWindows int
	// HoldWindows is how many consecutive silent windows must pass
	// before the same frequency may fire again (default 1).
	HoldWindows int

	// Onsets counts confirmed onsets emitted over the filter's
	// lifetime (telemetry reads it through the owning application's
	// Instrument method).
	Onsets uint64

	// The filter runs once per window for every subscribed app, so a
	// steady state must not allocate: states is a reused table of the
	// frequencies heard recently (present, or silent but not yet
	// re-armed), and out is the onset scratch Step returns.
	states []onsetState
	out    []Detection
}

type onsetState struct {
	freq    float64
	present bool // seen in the current window
	streak  int  // consecutive windows present
	fired   bool // onset emitted for the current activity burst
	silent  int  // consecutive silent windows since last presence
}

// NewOnsetFilter returns a filter with 2-window confirmation that
// re-arms after one silent window.
func NewOnsetFilter() *OnsetFilter {
	return &OnsetFilter{ConfirmWindows: 2, HoldWindows: 1}
}

// Step consumes the detections of one window and returns the
// confirmed onsets, in detection order. Call it once per controller
// window, in order, even when detections is empty (silence advances
// the re-arm countdown).
//
// The returned slice is scratch owned by the filter, valid until the
// next Step call; copy it to retain onsets across windows. Steady-state
// Step does not allocate.
func (o *OnsetFilter) Step(detections []Detection) []Detection {
	o.out = o.out[:0]
	for _, det := range detections {
		st := o.state(det.Frequency)
		st.present = true
		st.streak++
		st.silent = 0
		if !st.fired && st.streak >= o.ConfirmWindows {
			st.fired = true
			o.Onsets++
			o.out = append(o.out, det)
		}
	}
	// Advance every absent frequency's re-arm countdown and compact the
	// table in place, dropping the frequencies that re-armed.
	kept := o.states[:0]
	for _, st := range o.states {
		if st.present {
			st.present = false
		} else {
			st.streak = 0
			st.silent++
			if st.silent >= o.HoldWindows {
				continue
			}
		}
		kept = append(kept, st)
	}
	o.states = kept
	if len(o.out) == 0 {
		return nil
	}
	return o.out
}

// state returns freq's entry in the table, appending a fresh one when
// the frequency is not tracked.
func (o *OnsetFilter) state(freq float64) *onsetState {
	for i := range o.states {
		if o.states[i].freq == freq {
			return &o.states[i]
		}
	}
	o.states = append(o.states, onsetState{freq: freq})
	return &o.states[len(o.states)-1]
}
