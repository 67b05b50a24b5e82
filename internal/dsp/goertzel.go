package dsp

import "math"

// Goertzel evaluates the magnitude of a single frequency component in
// a block of samples using the Goertzel algorithm. It is the cheap
// alternative to a full FFT when only a handful of known frequencies
// (an MDN frequency plan) must be checked.
//
// The returned value is comparable to the magnitude of the
// corresponding FFT bin of the same block.
//
// Every product in this file's kernels is written float64(a*b): an
// explicit conversion rounds the product, so no architecture may fuse
// it with the following add into one FMA (arm64 otherwise does), and
// magnitudes are bit-identical on every GOARCH.
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
		s0 = x + float64(coeff*s1) - s2
		s2 = s1
		s1 = s0
	}
	return goertzelMagnitude(s1, s2, coeff)
}

// goertzelMagnitude is the magnitude of a resonator's final state.
func goertzelMagnitude(s1, s2, coeff float64) float64 {
	power := float64(s1*s1) + float64(s2*s2) - float64(coeff*s1*s2)
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

// goertzelZLanes is how many resonators one pass of the amd64 AVX-512
// kernel can advance: ten ZMM state pairs of eight float64 lanes each,
// beside ten ZMM registers of coefficients. The kernel runs whole
// eight-lane chains, and the plan's 24-lane padding covers them.
const goertzelZLanes = 80

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
// assembly kernel (goertzel_amd64.s), and on those with AVX-512 too,
// lists of more than 24 run up to 80 at a time through a wider one;
// elsewhere, and on older CPUs, they run through the portable kernel.
// Every kernel runs each resonator through Goertzel's float operations
// in Goertzel's order, so the choice shows only in wall time. The
// chosen kernel's passes run one after another (see Passes).
func (g *GoertzelPlan) MagnitudesInto(dst []float64, samples []float64) []float64 {
	dst = growFloat(dst, g.n)
	k := g.kernel()
	for p := range g.passes(k) {
		g.pass(k, dst, samples, p)
	}
	return dst
}

// Passes returns how many passes over the samples MagnitudesInto makes:
// the AVX-512 kernel's balanced passes, the AVX2 kernel's 24-lane
// blocks or the portable kernel's 6-lane blocks. Each pass finishes
// its own disjoint run of frequencies (see PassInto).
func (g *GoertzelPlan) Passes() int { return g.passes(g.kernel()) }

// PassInto runs pass p of MagnitudesInto (0 <= p < Passes()) over
// samples: it writes the magnitudes of that pass's frequencies into
// their slots of dst, which must hold one slot per planned frequency,
// and leaves the other slots alone. Passes write disjoint slots and
// read only the immutable plan, so the passes of one window may run
// concurrently on one dst; together they write what MagnitudesInto
// writes, bit for bit.
func (g *GoertzelPlan) PassInto(dst, samples []float64, p int) {
	g.pass(g.kernel(), dst[:g.n], samples, p)
}

// bankKernel names one implementation of the resonator bank.
type bankKernel int

const (
	kernelGo bankKernel = iota
	kernelAVX2
	kernelAVX512
)

// kernel picks the fastest kernel this CPU runs for the plan's size.
func (g *GoertzelPlan) kernel() bankKernel {
	switch {
	case useAVX512 && g.n > goertzelLanes:
		return kernelAVX512
	case useAVX2:
		return kernelAVX2
	default:
		return kernelGo
	}
}

// passes is how many passes kernel k makes over the samples.
func (g *GoertzelPlan) passes(k bankKernel) int {
	switch k {
	case kernelAVX512:
		return ((g.n+7)/8 + 9) / 10
	case kernelAVX2:
		return (g.n + goertzelLanes - 1) / goertzelLanes
	default:
		return (g.n + goertzelBlock - 1) / goertzelBlock
	}
}

// pass runs pass p of kernel k into dst, which has one slot per
// planned frequency. An empty block, or a plan without a sample rate,
// zeroes the pass's slots.
func (g *GoertzelPlan) pass(k bankKernel, dst, samples []float64, p int) {
	lo, hi := g.passSpan(k, p)
	switch {
	case len(samples) == 0 || g.SampleRate <= 0:
		clear(dst[lo:min(hi, g.n)])
	case k == kernelAVX512:
		g.passAVX512(dst, samples, lo, hi)
	case k == kernelAVX2:
		g.passAVX2(dst, samples, lo)
	default:
		g.passGo(dst, samples, lo)
	}
}

// passSpan is the lanes [lo, hi) pass p of kernel k advances; lanes
// past the planned frequencies are padding.
func (g *GoertzelPlan) passSpan(k bankKernel, p int) (lo, hi int) {
	switch k {
	case kernelAVX512:
		// The passes split the eight-lane chains as evenly as whole
		// chains allow, the longer passes first.
		chains := (g.n + 7) / 8
		n := g.passes(k)
		q, r := chains/n, chains%n
		first := p*q + min(p, r)
		if p < r {
			q++
		}
		return 8 * first, 8 * (first + q)
	case kernelAVX2:
		return p * goertzelLanes, (p + 1) * goertzelLanes
	default:
		return p * goertzelBlock, (p + 1) * goertzelBlock
	}
}

// passAVX512 runs lanes [lo, hi), at most ten eight-lane chains,
// through the AVX-512 kernel. The plan runs as few passes as cover its resonators,
// with pass sizes that differ by at most one chain (130 tones run as
// 72 + 64 lanes, not 80 + 56): a pass of ten chains is bound by the
// floating-point ports, one of eight or fewer by each chain's latency,
// so the balanced split is the faster one. The real lanes' magnitudes
// are finished here.
func (g *GoertzelPlan) passAVX512(dst, samples []float64, lo, hi int) {
	var c, s1, s2 [goertzelZLanes]float64
	copy(c[:], g.coeff[lo:hi])
	goertzelAVX512(&c, (hi-lo)/8, samples, &s1, &s2)
	for i := range dst[lo:min(hi, g.n)] {
		dst[lo+i] = goertzelMagnitude(s1[i], s2[i], c[i])
	}
}

// passAVX2 runs the 24-lane block from lane j through the AVX2 kernel
// and finishes each real lane's magnitude here, dropping the padded
// lanes.
func (g *GoertzelPlan) passAVX2(dst, samples []float64, j int) {
	var s1, s2 [goertzelLanes]float64
	c := (*[goertzelLanes]float64)(g.coeff[j : j+goertzelLanes])
	goertzelAVX2(c, samples, &s1, &s2)
	for i := range dst[j:min(j+goertzelLanes, g.n)] {
		dst[j+i] = goertzelMagnitude(s1[i], s2[i], c[i])
	}
}

// passGo runs the block of goertzelBlock resonators from lane j
// through the portable kernel: the fallback where AVX2 is missing and the reference
// the tests hold the assembly kernels to.
//
// The sample loop runs inside the block, so the block's state stays
// in registers for the whole block of samples. Two samples per
// iteration let each state pair (a, b) swap roles instead of moving:
// b = x + c*a - b is Goertzel's s0 = x + c*s1 - s2, with the new s1
// landing in b and the old s1 (now s2) left in a. Each resonator thus
// runs Goertzel's float operations in Goertzel's order.
func (g *GoertzelPlan) passGo(dst, samples []float64, j int) {
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
		b0 = x + float64(c[0]*a0) - b0
		b1 = x + float64(c[1]*a1) - b1
		b2 = x + float64(c[2]*a2) - b2
		b3 = x + float64(c[3]*a3) - b3
		b4 = x + float64(c[4]*a4) - b4
		b5 = x + float64(c[5]*a5) - b5
		a0 = y + float64(c[0]*b0) - a0
		a1 = y + float64(c[1]*b1) - a1
		a2 = y + float64(c[2]*b2) - a2
		a3 = y + float64(c[3]*b3) - a3
		a4 = y + float64(c[4]*b4) - a4
		a5 = y + float64(c[5]*b5) - a5
	}
	if len(s) == 1 {
		x := s[0]
		b0 = x + float64(c[0]*a0) - b0
		b1 = x + float64(c[1]*a1) - b1
		b2 = x + float64(c[2]*a2) - b2
		b3 = x + float64(c[3]*a3) - b3
		b4 = x + float64(c[4]*a4) - b4
		b5 = x + float64(c[5]*a5) - b5
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
