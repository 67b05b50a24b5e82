package dsp

import "math"

// Goertzel evaluates the magnitude of a single frequency component in
// a block of samples using the Goertzel algorithm. It is the cheap
// alternative to a full FFT when only a handful of known frequencies
// (an MDN frequency plan) must be checked.
//
// The returned value is comparable to the magnitude of the
// corresponding FFT bin of the same block.
func Goertzel(samples []float64, freq, sampleRate float64) float64 {
	n := len(samples)
	if n == 0 || sampleRate <= 0 {
		return 0
	}
	// Use the exact normalised frequency rather than the nearest
	// integer bin: MDN tones are not bin-aligned in general.
	w := 2 * math.Pi * freq / sampleRate
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, x := range samples {
		s0 = x + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	// Magnitude of the resonator state.
	power := s1*s1 + s2*s2 - coeff*s1*s2
	if power < 0 {
		power = 0
	}
	return math.Sqrt(power)
}

// GoertzelPlan evaluates a fixed bank of frequencies over sample
// blocks, precomputing the per-frequency resonator coefficients once
// and streaming each block in a single pass that advances every
// resonator — the planned counterpart of calling Goertzel per
// frequency, which re-derives the coefficient and re-reads the block
// once per watched tone.
//
// The resonator state is reused between calls, so a plan is NOT safe
// for concurrent use; give each goroutine its own (construction is
// cheap — one math.Cos per frequency).
type GoertzelPlan struct {
	// SampleRate is the rate the coefficients were derived for.
	SampleRate float64

	freqs  []float64
	coeff  []float64 // 2*cos(2*pi*f/rate) per frequency
	s1, s2 []float64 // resonator state, reset each block
}

// NewGoertzelPlan builds a plan for the given frequencies at
// sampleRate. The frequency slice is copied.
func NewGoertzelPlan(freqs []float64, sampleRate float64) *GoertzelPlan {
	g := &GoertzelPlan{
		SampleRate: sampleRate,
		freqs:      append([]float64(nil), freqs...),
		coeff:      make([]float64, len(freqs)),
		s1:         make([]float64, len(freqs)),
		s2:         make([]float64, len(freqs)),
	}
	for i, f := range g.freqs {
		g.coeff[i] = 2 * math.Cos(2*math.Pi*f/sampleRate)
	}
	return g
}

// MagnitudesInto streams the block once, advancing every resonator
// per sample, and writes one magnitude per planned frequency into
// dst (reusing its capacity). Results match Goertzel per frequency.
func (g *GoertzelPlan) MagnitudesInto(dst []float64, samples []float64) []float64 {
	nf := len(g.freqs)
	dst = growFloat(dst, nf)
	if nf == 0 {
		return dst
	}
	if len(samples) == 0 || g.SampleRate <= 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	coeff, s1, s2 := g.coeff, g.s1, g.s2
	for j := range s1 {
		s1[j] = 0
		s2[j] = 0
	}
	for _, x := range samples {
		for j, c := range coeff {
			s0 := x + c*s1[j] - s2[j]
			s2[j] = s1[j]
			s1[j] = s0
		}
	}
	for j := range dst {
		power := s1[j]*s1[j] + s2[j]*s2[j] - coeff[j]*s1[j]*s2[j]
		if power < 0 {
			power = 0
		}
		dst[j] = math.Sqrt(power)
	}
	return dst
}

// GoertzelBank evaluates many frequencies over the same block in a
// single pass. The result has one magnitude per requested frequency,
// in order.
func GoertzelBank(samples []float64, freqs []float64, sampleRate float64) []float64 {
	return NewGoertzelPlan(freqs, sampleRate).MagnitudesInto(nil, samples)
}

// GoertzelPower returns the normalised power (mean-square amplitude
// contribution) of freq in the block, i.e. magnitude scaled so that a
// unit-amplitude sinusoid at freq yields approximately 0.5.
func GoertzelPower(samples []float64, freq, sampleRate float64) float64 {
	n := float64(len(samples))
	if n == 0 {
		return 0
	}
	m := Goertzel(samples, freq, sampleRate)
	return (m / n) * (m / n) * 2
}
