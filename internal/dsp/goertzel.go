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
	return goertzelMagnitude(s1, s2, coeff)
}

// goertzelMagnitude is the magnitude of a resonator's final state.
func goertzelMagnitude(s1, s2, coeff float64) float64 {
	power := s1*s1 + s2*s2 - coeff*s1*s2
	if power < 0 {
		power = 0
	}
	return math.Sqrt(power)
}

// GoertzelPlan evaluates a fixed bank of frequencies over sample
// blocks, precomputing the per-frequency resonator coefficients once
// and streaming each block through every resonator — the planned
// counterpart of calling Goertzel per frequency, which re-derives the
// coefficient for every call. Its magnitudes are bit-identical to
// Goertzel's.
//
// A plan is immutable after construction, so one plan is safe for
// concurrent use.
type GoertzelPlan struct {
	// SampleRate is the rate the coefficients were derived for.
	SampleRate float64

	n     int       // planned frequencies
	coeff []float64 // 2*cos(2*pi*f/rate) per frequency, padded to whole blocks
}

// goertzelLanes is how many resonators one pass of the amd64 AVX2
// kernel advances: six YMM state pairs of four float64 lanes each. The
// plan pads its coefficients to whole blocks of this width, which is
// also a whole number of goertzelBlock blocks.
const goertzelLanes = 24

// goertzelBlock is how many resonators the portable kernel advances
// per pass over the samples. Each resonator step is a dependent
// multiply, add and subtract, so speed comes from independent chains,
// and six state pairs are about what the sixteen scalar SSE registers
// hold beside a sample and a temporary. Over 3- to 130-tone banks on
// amd64, five was 15-45 % slower from 12 tones up, and eight, 8 %
// faster at 130 tones, was about 40 % slower at 3 and 12 tones, where
// most of its lanes are padding.
const goertzelBlock = 6

// NewGoertzelPlan builds a plan for the given frequencies at
// sampleRate.
func NewGoertzelPlan(freqs []float64, sampleRate float64) *GoertzelPlan {
	n := len(freqs)
	g := &GoertzelPlan{
		SampleRate: sampleRate,
		n:          n,
		coeff:      make([]float64, (n+goertzelLanes-1)/goertzelLanes*goertzelLanes),
	}
	for i, f := range freqs {
		g.coeff[i] = 2 * math.Cos(2*math.Pi*f/sampleRate)
	}
	// Pad the last block with copies of its last real resonator; their
	// outputs are discarded.
	for i := n; i < len(g.coeff); i++ {
		g.coeff[i] = g.coeff[n-1]
	}
	return g
}

// MagnitudesInto writes one magnitude per planned frequency into dst
// (reusing its capacity). Results are bit-identical to Goertzel per
// frequency.
//
// On amd64 CPUs with AVX2 the resonators run 24 at a time through an
// assembly kernel (goertzel_amd64.s); elsewhere, and on older CPUs,
// through the portable kernel. Both run each resonator through
// Goertzel's float operations in Goertzel's order, so the choice shows
// only in wall time.
func (g *GoertzelPlan) MagnitudesInto(dst []float64, samples []float64) []float64 {
	dst = growFloat(dst, g.n)
	if len(samples) == 0 || g.SampleRate <= 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	if useAVX2 {
		g.magnitudesAVX2(dst, samples)
	} else {
		g.magnitudesGo(dst, samples)
	}
	return dst
}

// magnitudesAVX2 runs the planned resonators through the AVX2 kernel,
// one 24-lane block per call, and finishes each real lane's magnitude
// here, dropping the padded lanes. dst has one slot per planned
// frequency.
func (g *GoertzelPlan) magnitudesAVX2(dst, samples []float64) {
	var s1, s2 [goertzelLanes]float64
	for j := 0; j < g.n; j += goertzelLanes {
		c := (*[goertzelLanes]float64)(g.coeff[j : j+goertzelLanes])
		goertzelAVX2(c, samples, &s1, &s2)
		for i := range dst[j:min(j+goertzelLanes, g.n)] {
			dst[j+i] = goertzelMagnitude(s1[i], s2[i], c[i])
		}
	}
}

// magnitudesGo is the portable kernel: the fallback where AVX2 is
// missing and the reference the tests hold the AVX2 kernel to. dst has
// one slot per planned frequency.
//
// The resonators run in blocks of goertzelBlock with the sample loop
// inside, so each block's state stays in registers for the whole
// block of samples. Two samples per iteration let each state pair
// (a, b) swap roles instead of moving: b = x + c*a - b is Goertzel's
// s0 = x + c*s1 - s2, with the new s1 landing in b and the old s1 (now
// s2) left in a. Each resonator thus runs Goertzel's float operations
// in Goertzel's order.
func (g *GoertzelPlan) magnitudesGo(dst, samples []float64) {
	for j := 0; j < g.n; j += goertzelBlock {
		// Read the coefficients through the block's array inside the
		// loop, not from locals: the compiler then reloads them from
		// memory instead of holding them, which leaves the registers
		// to the state.
		c := (*[goertzelBlock]float64)(g.coeff[j : j+goertzelBlock])
		var a0, a1, a2, a3, a4, a5 float64 // s1 after an even sample count
		var b0, b1, b2, b3, b4, b5 float64 // s2 after an even sample count
		s := samples
		for ; len(s) >= 2; s = s[2:] {
			x, y := s[0], s[1]
			b0 = x + c[0]*a0 - b0
			b1 = x + c[1]*a1 - b1
			b2 = x + c[2]*a2 - b2
			b3 = x + c[3]*a3 - b3
			b4 = x + c[4]*a4 - b4
			b5 = x + c[5]*a5 - b5
			a0 = y + c[0]*b0 - a0
			a1 = y + c[1]*b1 - a1
			a2 = y + c[2]*b2 - a2
			a3 = y + c[3]*b3 - a3
			a4 = y + c[4]*b4 - a4
			a5 = y + c[5]*b5 - a5
		}
		if len(s) == 1 {
			x := s[0]
			b0 = x + c[0]*a0 - b0
			b1 = x + c[1]*a1 - b1
			b2 = x + c[2]*a2 - b2
			b3 = x + c[3]*a3 - b3
			b4 = x + c[4]*a4 - b4
			b5 = x + c[5]*a5 - b5
			a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5 = b0, b1, b2, b3, b4, b5, a0, a1, a2, a3, a4, a5
		}
		mags := [goertzelBlock]float64{
			goertzelMagnitude(a0, b0, c[0]),
			goertzelMagnitude(a1, b1, c[1]),
			goertzelMagnitude(a2, b2, c[2]),
			goertzelMagnitude(a3, b3, c[3]),
			goertzelMagnitude(a4, b4, c[4]),
			goertzelMagnitude(a5, b5, c[5]),
		}
		copy(dst[j:], mags[:]) // drops the padded lanes
	}
}

// GoertzelBank evaluates many frequencies over the same block through
// a one-off GoertzelPlan. The result has one magnitude per requested
// frequency, in order.
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
