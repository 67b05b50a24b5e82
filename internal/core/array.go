package core

import (
	"mdn/internal/acoustic"
	"mdn/internal/netsim"
)

// MicArray is the Section 8 research direction "coordinate an array
// of microphones listening to different groups of switches": several
// microphones analysed per window, each detection attributed to the
// microphone that heard it loudest. Because amplitude falls as 1/r,
// the loudest microphone is the nearest one, which localises the
// emitter to that microphone's zone — and lets two zones reuse the
// same frequencies.
type MicArray struct {
	// Window is the analysis window in seconds.
	Window float64
	// Detector analyses every microphone's capture.
	Detector *Detector

	sim    *netsim.Sim
	mics   []*acoustic.Microphone
	ticker *netsim.Ticker

	handlers []func(ArrayDetection)

	// Windows counts analysed windows.
	Windows uint64
}

// ArrayDetection is a detection attributed to a zone.
type ArrayDetection struct {
	Detection
	// Mic is the name of the loudest (attributed) microphone.
	Mic string
	// Amplitudes holds the per-microphone amplitude estimates, by
	// microphone name, for detections of this frequency.
	Amplitudes map[string]float64
}

// NewMicArray builds an array over the given microphones.
//
// Constructor invariant (documented panic): an array needs at least
// one microphone; zero is a configuration bug and panics at
// construction time.
func NewMicArray(sim *netsim.Sim, det *Detector, mics ...*acoustic.Microphone) *MicArray {
	if len(mics) == 0 {
		panic("core: MicArray requires at least one microphone")
	}
	return &MicArray{
		Window:   DefaultWindow,
		Detector: det,
		sim:      sim,
		mics:     mics,
	}
}

// Subscribe registers a handler for attributed detections.
func (a *MicArray) Subscribe(fn func(ArrayDetection)) {
	a.handlers = append(a.handlers, fn)
}

// Start begins polling at time at.
func (a *MicArray) Start(at float64) {
	if a.ticker != nil {
		a.ticker.Stop()
	}
	a.ticker = a.sim.Every(at+a.Window, a.Window, func(now float64) {
		a.analyse(now-a.Window, now)
	})
}

func (a *MicArray) analyse(from, to float64) {
	a.Windows++
	// Per frequency: amplitude at each microphone.
	perFreq := make(map[float64]map[string]float64)
	var order []float64
	for _, mic := range a.mics {
		buf := mic.Capture(from, to)
		for _, det := range a.Detector.Detect(buf, from) {
			m := perFreq[det.Frequency]
			if m == nil {
				m = make(map[string]float64)
				perFreq[det.Frequency] = m
				order = append(order, det.Frequency)
			}
			m[mic.Name] = det.Amplitude
		}
	}
	for _, f := range order {
		amps := perFreq[f]
		bestMic := ""
		bestAmp := 0.0
		for name, amp := range amps {
			if amp > bestAmp {
				bestAmp = amp
				bestMic = name
			}
		}
		ad := ArrayDetection{
			Detection:  Detection{Time: from, Frequency: f, Amplitude: bestAmp},
			Mic:        bestMic,
			Amplitudes: amps,
		}
		for _, h := range a.handlers {
			h(ad)
		}
	}
}
