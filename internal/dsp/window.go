package dsp

import (
	"math"
	"sync"
)

// Window identifies a tapering function applied to a signal block
// before a transform to control spectral leakage.
type Window int

// Supported window functions.
const (
	// Rectangular applies no tapering (the implicit window of a raw
	// block). Worst leakage, narrowest main lobe.
	Rectangular Window = iota
	// Hann is the raised-cosine window; the default for MDN tone
	// detection because adjacent 20 Hz-spaced tones must not leak
	// into each other's bins.
	Hann
	// Hamming is the classic Hamming window (slightly lower first
	// sidelobe than Hann, no zero endpoints).
	Hamming
	// Blackman offers stronger sidelobe suppression at the cost of a
	// wider main lobe.
	Blackman
)

// String returns the conventional name of the window.
func (w Window) String() string {
	switch w {
	case Rectangular:
		return "rectangular"
	case Hann:
		return "hann"
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	default:
		return "unknown"
	}
}

// winKey keys the per-(window, length) caches below.
type winKey struct {
	w Window
	n int
}

var (
	coefCache sync.Map // winKey -> []float64 (shared, read-only)
	gainCache sync.Map // winKey -> float64
)

// coefficients returns the shared, cached coefficient slice for
// (w, n). Callers must treat it as read-only. Rectangular returns nil,
// which every internal consumer interprets as "no tapering" — it
// skips a pointless multiply-by-one pass.
func (w Window) coefficients(n int) []float64 {
	if n <= 0 || w == Rectangular {
		return nil
	}
	key := winKey{w, n}
	if v, ok := coefCache.Load(key); ok {
		return v.([]float64)
	}
	out := w.compute(n)
	actual, _ := coefCache.LoadOrStore(key, out)
	return actual.([]float64)
}

func (w Window) compute(n int) []float64 {
	out := make([]float64, n)
	if n == 1 {
		out[0] = 1
		return out
	}
	den := float64(n - 1)
	for i := range out {
		t := float64(i) / den
		switch w {
		case Hann:
			out[i] = 0.5 - float64(0.5*math.Cos(2*math.Pi*t))
		case Hamming:
			out[i] = 0.54 - float64(0.46*math.Cos(2*math.Pi*t))
		case Blackman:
			out[i] = 0.42 - float64(0.5*math.Cos(2*math.Pi*t)) + float64(0.08*math.Cos(4*math.Pi*t))
		default:
			out[i] = 1
		}
	}
	return out
}

// Apply multiplies x by the window in place and returns x. It uses
// the cached coefficients, so steady-state calls allocate nothing.
func (w Window) Apply(x []float64) []float64 {
	coef := w.coefficients(len(x))
	if coef == nil {
		return x
	}
	for i := range x {
		x[i] *= coef[i]
	}
	return x
}

// Gain returns the coherent gain of the window (mean coefficient),
// used to correct tone amplitudes measured through a windowed FFT.
// Gains are cached per (window, length), so repeated calls on the
// controller hot path are allocation-free.
func (w Window) Gain(n int) float64 {
	if n <= 0 {
		return 0
	}
	if w == Rectangular {
		return 1
	}
	key := winKey{w, n}
	if v, ok := gainCache.Load(key); ok {
		return v.(float64)
	}
	coef := w.coefficients(n)
	sum := 0.0
	for _, c := range coef {
		sum += c
	}
	g := sum / float64(n)
	gainCache.Store(key, g)
	return g
}
