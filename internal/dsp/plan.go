package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// FFTPlan holds everything precomputed for transforms of one length:
// the twiddle-factor table, the bit-reversal permutation, and (for the
// packed real-input transform) the half-length sub-plan and per-plan
// scratch pool. Plans are built once per size, cached globally, and
// safe for concurrent use — the per-call mutable state lives in pooled
// scratch, never on the plan itself.
//
// The planned entry points replace the per-call math.Sincos of the old
// transform with one table lookup per butterfly, which is where most
// of the controller hot path's time went.
type FFTPlan struct {
	// N is the transform length (a power of two).
	N int

	// twiddle[k] = exp(-2*pi*i*k/N) for k < N/2. Stage `size` of the
	// decimation-in-time transform reads it with stride N/size. The
	// same table provides the split coefficients of the packed
	// real-input transform.
	twiddle []complex128
	// rev is the bit-reversal permutation of 0..N-1.
	rev []int32
	// half is the N/2 plan driving RealSpectrumInto. nil when N == 1.
	half *FFTPlan

	scratch sync.Pool // *FFTScratch
}

// FFTScratch is the per-call mutable state of a planned transform: the
// packed complex input of the real transform, the half spectrum, and a
// float buffer for spectrum post-processing (STFT frame streaming).
//
// Plans normally rent one from a per-plan sync.Pool, which is the
// right trade for bursty callers — but the garbage collector may clear
// that pool between calls, so a long-lived periodic caller (a
// controller detector analysing one window every 50 ms forever) sees
// its scratch evaporate and re-allocate under GC pressure. Such
// callers hold their own FFTScratch and use the *Scratch entry points
// instead. The zero value is ready to use and grows to fit any plan;
// it is not safe for concurrent use.
type FFTScratch struct {
	z    []complex128 // len N/2: packed real input
	spec []complex128 // len N/2+1: half spectrum
	vals []float64    // len N/2+1: magnitudes or power
}

var planCache sync.Map // int -> *FFTPlan

// PlanFFT returns the cached plan for transforms of length n, building
// it on first use. n must be a positive power of two; PlanFFT panics
// otherwise, because a wrong length is a programming error. The
// returned plan is shared and safe for concurrent use.
func PlanFFT(n int) *FFTPlan {
	if !IsPowerOfTwo(n) {
		panic(fmt.Sprintf("dsp: PlanFFT length %d is not a power of two", n))
	}
	if v, ok := planCache.Load(n); ok {
		return v.(*FFTPlan)
	}
	p := newFFTPlan(n)
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*FFTPlan)
}

func newFFTPlan(n int) *FFTPlan {
	p := &FFTPlan{N: n}
	half := n / 2
	p.twiddle = make([]complex128, half)
	for k := range p.twiddle {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.twiddle[k] = complex(c, s)
	}
	if n > 1 {
		p.rev = make([]int32, n)
		shift := 64 - uint(bits.Len(uint(n-1)))
		for i := 0; i < n; i++ {
			p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
		}
		p.half = PlanFFT(half)
	}
	p.scratch.New = func() interface{} {
		return &FFTScratch{
			z:    make([]complex128, half),
			spec: make([]complex128, half+1),
			vals: make([]float64, half+1),
		}
	}
	return p
}

func (p *FFTPlan) getScratch() *FFTScratch {
	return p.scratch.Get().(*FFTScratch)
}

// Transform computes the in-place forward FFT of x. len(x) must equal
// p.N.
func (p *FFTPlan) Transform(x []complex128) {
	p.checkLen(x)
	p.transform(x, 1)
}

// InverseTransform computes the in-place inverse FFT of x including
// the 1/N normalisation, so InverseTransform(Transform(x)) == x up to
// rounding.
func (p *FFTPlan) InverseTransform(x []complex128) {
	p.checkLen(x)
	p.transform(x, -1)
	inv := 1 / float64(p.N)
	for i := range x {
		x[i] = complex(real(x[i])*inv, imag(x[i])*inv)
	}
}

func (p *FFTPlan) checkLen(x []complex128) {
	if len(x) != p.N {
		panic(fmt.Sprintf("dsp: FFTPlan length mismatch: plan %d, input %d", p.N, len(x)))
	}
}

// transform runs the iterative decimation-in-time butterflies. sign is
// +1 for the forward transform, -1 for the inverse (which conjugates
// the twiddle factors).
func (p *FFTPlan) transform(x []complex128, sign float64) {
	n := p.N
	if n < 2 {
		return
	}
	for i, j := range p.rev {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := p.twiddle
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			ti := 0
			for k := start; k < start+half; k++ {
				w := tw[ti]
				w = complex(real(w), sign*imag(w))
				ti += stride
				b := x[k+half] * w
				a := x[k]
				x[k] = a + b
				x[k+half] = a - b
			}
		}
	}
}

// RealSpectrumInto computes the half spectrum (N/2+1 non-negative
// frequency bins) of the real signal x, zero-padding when
// len(x) < p.N. It packs the N real samples into an N/2 complex
// transform — half the butterflies of promoting to complex — then
// unpacks with the split coefficients. dst is reused when it has
// capacity; the grown-or-reused slice is returned, so steady-state
// calls are allocation-free. len(x) must not exceed p.N.
func (p *FFTPlan) RealSpectrumInto(dst []complex128, x []float64) []complex128 {
	s := p.getScratch()
	dst = p.realSpectrumWindowed(dst, x, nil, s)
	p.scratch.Put(s)
	return dst
}

// realSpectrumWindowed is RealSpectrumInto with the window fused into
// the packing pass: sample i is scaled by coef[i]. A nil coef means no
// window. len(coef) must be >= len(x) when non-nil. s provides the
// packing buffer (grown to fit the plan if the caller's scratch is
// smaller).
func (p *FFTPlan) realSpectrumWindowed(dst []complex128, x []float64, coef []float64, s *FFTScratch) []complex128 {
	n := p.N
	if len(x) > n {
		panic(fmt.Sprintf("dsp: real input length %d exceeds plan length %d", len(x), n))
	}
	h := n / 2
	dst = growComplex(dst, h+1)
	if n == 1 {
		v := 0.0
		if len(x) > 0 {
			v = x[0]
			if coef != nil {
				v *= coef[0]
			}
		}
		dst[0] = complex(v, 0)
		return dst
	}
	s.z = growComplex(s.z, h)
	z := s.z
	m := len(x)
	full := m / 2 // pairs with both samples in range
	if coef == nil {
		for k := 0; k < full; k++ {
			z[k] = complex(x[2*k], x[2*k+1])
		}
	} else {
		for k := 0; k < full; k++ {
			z[k] = complex(x[2*k]*coef[2*k], x[2*k+1]*coef[2*k+1])
		}
	}
	for k := full; k < h; k++ {
		re := 0.0
		if 2*k < m {
			re = x[2*k]
			if coef != nil {
				re *= coef[2*k]
			}
		}
		z[k] = complex(re, 0)
	}
	p.half.transform(z, 1)

	// Split: with Z = FFT(z), X[k] = (A - i*w^k*B)/2 where
	// A = Z[k]+conj(Z[h-k]), B = Z[k]-conj(Z[h-k]), w = exp(-2πi/N).
	z0 := z[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[h] = complex(real(z0)-imag(z0), 0)
	for k := 1; k < h; k++ {
		zk := z[k]
		zm := z[h-k]
		zm = complex(real(zm), -imag(zm))
		a := zk + zm
		b := zk - zm
		c := p.twiddle[k] * b
		// -i*c = complex(imag(c), -real(c))
		dst[k] = complex(0.5*(real(a)+imag(c)), 0.5*(imag(a)-real(c)))
	}
	return dst
}

// WindowedSpectrumInto windows x (without modifying it), zero-pads to
// p.N, and writes the half-spectrum magnitudes (p.N/2+1 values) into
// dst, reusing its capacity. It is the planned, allocation-free core
// of WindowedSpectrum.
func (p *FFTPlan) WindowedSpectrumInto(dst []float64, x []float64, win Window) []float64 {
	s := p.getScratch()
	dst = p.windowedInto(dst, x, win, false, s)
	p.scratch.Put(s)
	return dst
}

// WindowedPowerSpectrumInto is WindowedSpectrumInto producing power
// values (|X[k]|²).
func (p *FFTPlan) WindowedPowerSpectrumInto(dst []float64, x []float64, win Window) []float64 {
	s := p.getScratch()
	dst = p.windowedInto(dst, x, win, true, s)
	p.scratch.Put(s)
	return dst
}

// WindowedSpectrumScratch is WindowedSpectrumInto using the
// caller-owned workspace s instead of the plan's pooled scratch, for
// long-lived periodic callers whose steady state must survive GC
// clearing the pool (see FFTScratch).
func (p *FFTPlan) WindowedSpectrumScratch(dst []float64, x []float64, win Window, s *FFTScratch) []float64 {
	return p.windowedInto(dst, x, win, false, s)
}

// WindowedPowerSpectrumScratch is WindowedPowerSpectrumInto using the
// caller-owned workspace s instead of the plan's pooled scratch.
func (p *FFTPlan) WindowedPowerSpectrumScratch(dst []float64, x []float64, win Window, s *FFTScratch) []float64 {
	return p.windowedInto(dst, x, win, true, s)
}

func (p *FFTPlan) windowedInto(dst []float64, x []float64, win Window, power bool, s *FFTScratch) []float64 {
	spec := p.realSpectrumWindowed(s.spec[:0], x, win.coefficients(len(x)), s)
	s.spec = spec
	dst = growFloat(dst, len(spec))
	if power {
		powerInto(dst, spec)
	} else {
		magnitudesInto(dst, spec)
	}
	return dst
}

// MagnitudesInto writes |spec[k]| element-wise into dst, reusing its
// capacity, and returns the result. Unlike Magnitudes it does not
// halve the length: pass a half spectrum (e.g. from RealSpectrumInto)
// to get the non-negative frequency bins.
func MagnitudesInto(dst []float64, spec []complex128) []float64 {
	dst = growFloat(dst, len(spec))
	magnitudesInto(dst, spec)
	return dst
}

func magnitudesInto(dst []float64, spec []complex128) {
	for i, c := range spec {
		re, im := real(c), imag(c)
		dst[i] = math.Sqrt(re*re + im*im)
	}
}

func powerInto(dst []float64, spec []complex128) {
	for i, c := range spec {
		re, im := real(c), imag(c)
		dst[i] = re*re + im*im
	}
}
