package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// FFTPlan holds everything precomputed for transforms of one length:
// the twiddle-factor table, the bit-reversal permutation, the
// per-pass twiddle tables of the fused kernel, and (for the packed
// real-input transform) the half-length sub-plan and per-plan scratch
// pool. Plans are built once per size, cached globally, and safe for
// concurrent use — the per-call mutable state lives in pooled scratch,
// never on the plan itself.
//
// Every entry point runs one forward kernel: a size-2 stage without
// multiplies (which the real-input transforms fold into their packing
// pass), then the remaining stages fused in pairs (radix-2²), each pair
// one pass over the data through one shared twiddle table per pass,
// and a last radix-2 stage when the stage count is odd. On amd64 CPUs
// with AVX2 the paired passes run two butterflies per instruction in
// an assembly kernel (fft_amd64.s), elsewhere in the portable passGo;
// both round exactly the same products and sums, so their outputs are
// bit-identical, and every product is rounded before its sum, so they
// are the same on every GOARCH. The outputs equal the textbook radix-2
// butterfly loop's under == (only the signs of exact zeros may
// differ); the tests keep that loop as their oracle.
type FFTPlan struct {
	// N is the transform length (a power of two).
	N int

	// twiddle[k] = exp(-2*pi*i*k/N) for k < N/2: the kernel's passes
	// are built from it, the last stage of an odd stage count reads it
	// directly, and it provides the split coefficients of the packed
	// real-input transform.
	twiddle []complex128
	// rev is the bit-reversal permutation of 0..N-1.
	rev []int32
	// passes holds one table per fused pair of stages, in kernel order.
	// Pass i covers groups of 4h points, where len(passes[i]) = 3h: the
	// h twiddles w1 of both size-2h butterflies, then the h twiddles w2
	// and the h twiddles w3 of the two size-4h ones, each run
	// contiguous so that both pass kernels load butterflies j and j+1
	// with one read.
	passes [][]complex128
	// oddStage reports a final unpaired size-N stage, run on twiddle.
	oddStage bool
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
	p.rev = make([]int32, n)
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	// Stage `size` reads twiddle with stride N/size. After the size-2
	// stage, stages pair up as (size, 2·size) for size = 4, 16, 64, …
	// Butterfly j's w1 is twiddle[j·N/size]; its w2 and w3 are
	// twiddle[j·N/(2·size)] and twiddle[(j+h)·N/(2·size)], so the w2 run
	// followed by the w3 run is one stride of 2h twiddles. The pass
	// tables share one backing array.
	entries := 0
	for size := 4; 2*size <= n; size *= 4 {
		entries += 3 * size / 2
	}
	all := make([]complex128, 0, entries)
	size := 4
	for ; 2*size <= n; size *= 4 {
		h := size / 2
		s1, s2 := n/size, n/(2*size)
		for j := 0; j < h; j++ {
			all = append(all, p.twiddle[j*s1])
		}
		for j := 0; j < 2*h; j++ {
			all = append(all, p.twiddle[j*s2])
		}
		p.passes = append(p.passes, all[len(all)-3*h:])
	}
	p.oddStage = size == n
	if n > 1 {
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
	for i, j := range p.rev {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	p.forward(x)
}

// InverseTransform computes the in-place inverse FFT of x including
// the 1/N normalisation, so InverseTransform(Transform(x)) == x up to
// rounding. It runs the forward kernel through conjugation:
// IFFT(x) = conj(FFT(conj(x)))/N.
func (p *FFTPlan) InverseTransform(x []complex128) {
	p.checkLen(x)
	for i, c := range x {
		x[i] = conj(c)
	}
	p.Transform(x)
	inv := 1 / float64(p.N)
	for i, c := range x {
		x[i] = complex(real(c)*inv, -imag(c)*inv)
	}
}

// fftPass runs one fused pair of stages over x: passWide on amd64
// CPUs with AVX-512, passAVX2 (fft_amd64.s) on those with AVX2 alone,
// passGo elsewhere. It is chosen once, at package init; the tests swap
// kernels in to hold them to each other bit for bit.
var fftPass = passGo

func init() {
	switch {
	case useAVX512:
		fftPass = passWide
	case useAVX2:
		fftPass = passAVX2
	}
}

// passWide runs passAVX512 on passes whose h is a multiple of four,
// which is every pass but the first (h = 2), and passAVX2 on that one.
func passWide(x, tw []complex128) {
	if len(tw)%12 == 0 {
		passAVX512(x, tw)
	} else {
		passAVX2(x, tw)
	}
}

// passGo is the portable pass kernel: the fallback where AVX2 is
// missing and the reference the tests hold the AVX2 kernel to. It runs
// stages size and 2·size (size = 2h, len(tw) = 3h) in one pass over x:
// group j's four points q0..q3[j] go through both stages in registers.
func passGo(x, tw []complex128) {
	h := len(tw) / 3
	w1, w2, w3 := tw[:h], tw[h:][:h], tw[2*h:][:h]
	for start := 0; start < len(x); start += 4 * h {
		blk := x[start:]
		q0, q1, q2, q3 := blk[:h], blk[h:][:h], blk[2*h:][:h], blk[3*h:][:h]
		for j, t := range w1 {
			a0, a1, a2, a3 := q0[j], q1[j], q2[j], q3[j]
			b := cmul(a1, t)
			a0, a1 = a0+b, a0-b
			b = cmul(a3, t)
			a2, a3 = a2+b, a2-b
			b = cmul(a2, w2[j])
			q0[j], q2[j] = a0+b, a0-b
			b = cmul(a3, w3[j])
			q1[j], q3[j] = a1+b, a1-b
		}
	}
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }

func (p *FFTPlan) checkLen(x []complex128) {
	if len(x) != p.N {
		panic(fmt.Sprintf("dsp: FFTPlan length mismatch: plan %d, input %d", p.N, len(x)))
	}
}

// forward runs the decimation-in-time butterflies in place on x, which
// holds the input in bit-reversed order. Each butterfly does exactly
// the radix-2 arithmetic of its stage — only the order of the passes
// over memory changes — so results match the one-stage-per-pass loop.
func (p *FFTPlan) forward(x []complex128) {
	x = x[:p.N]
	// Size 2: the only twiddle is tw[0] = (1, -0); skipping the
	// multiply changes at most the sign of a zero.
	for y := x; len(y) >= 2; y = y[2:] {
		a, b := y[0], y[1]
		y[0], y[1] = a+b, a-b
	}
	p.forwardPasses(x, 0)
}

// forwardPasses runs every stage of forward from pass from on: from 0
// after the size-2 stage, 1 after pass 0 too.
func (p *FFTPlan) forwardPasses(x []complex128, from int) {
	n := p.N
	x = x[:n]
	for _, tw := range p.passes[from:] {
		fftPass(x, tw)
	}
	if p.oddStage {
		h := n / 2
		lo, hi := x[:h], x[h:][:h]
		for j, w := range p.twiddle[:h] {
			b := cmul(hi[j], w)
			a := lo[j]
			lo[j], hi[j] = a+b, a-b
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
	h := p.N / 2
	dst = growComplex(dst, h+1)
	if p.N == 1 {
		p.checkReal(x)
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
	z := p.packedSpectrum(x, coef, s)
	dst[0], dst[h] = splitEdges(z[0])
	for k := 1; k < h; k++ {
		dst[k] = split(z[k], z[len(z)-k], p.twiddle[k])
	}
	return dst
}

// powerAt is WindowedPowerSpectrumInto evaluated only at the given
// bins: dst[i] = |X[bins[i]]|², equal to the power spectrum's value
// there, with the window's coefficients given. The transform is still
// the full one; what it skips is the split and |X|² of every bin nobody
// reads, which is most of them for a detector watching a few hundred
// bins of 2049. Bins may repeat and come in any order; each must lie in
// [0, p.N/2] (BinRuns.Add checks). dst is reused when it has capacity,
// and s is the caller-owned workspace.
func (p *FFTPlan) powerAt(dst []float64, x []float64, coef []float64, bins []int, s *FFTScratch) []float64 {
	if p.N == 1 {
		dst = growFloat(dst, len(bins))
		s.spec = p.realSpectrumWindowed(s.spec[:0], x, coef, s)
		for i := range bins {
			dst[i] = power(s.spec[0])
		}
		return dst
	}
	return p.powerAtPacked(dst, p.packedSpectrum(x, coef, s), bins)
}

// powerAtPacked is powerAt from the packed half spectrum z: the split
// and |X|² at each bin. p.N must be >= 2.
func (p *FFTPlan) powerAtPacked(dst []float64, z []complex128, bins []int) []float64 {
	h := p.N / 2
	dst = growFloat(dst, len(bins))
	lo, hi := splitEdges(z[0])
	for i, k := range bins {
		var c complex128
		switch k {
		case 0:
			c = lo
		case h:
			c = hi
		default:
			c = split(z[k], z[len(z)-k], p.twiddle[k])
		}
		dst[i] = power(c)
	}
	return dst
}

// BinRuns is a list of runs of consecutive half-spectrum bins of an
// N-point real transform, validated as it is built: the bins a detector
// takes each watched tone's peak over. Build it once per watch list and
// pass it to PeakAmplitudesScratch every window. The zero value holds
// no runs; Reset sets N.
type BinRuns struct {
	n    int
	bins []int // every run's bins, run after run
	end  []int // run i is bins[end[i-1]:end[i]]
	// interior reports that every bin lies strictly between 0 and N/2,
	// and N >= 2, which peakAVX512 needs.
	interior bool
}

// Reset empties r for transforms of length n, a power of two, keeping
// its capacity.
func (r *BinRuns) Reset(n int) {
	if !IsPowerOfTwo(n) {
		panic(fmt.Sprintf("dsp: BinRuns length %d is not a power of two", n))
	}
	r.n, r.bins, r.end, r.interior = n, r.bins[:0], r.end[:0], n >= 2
}

// Add appends the run of bins lo..hi-1; it panics unless
// 0 <= lo <= hi <= N/2+1. An empty run (lo == hi) reads as amplitude 0.
func (r *BinRuns) Add(lo, hi int) {
	h := r.n / 2
	if lo < 0 || hi < lo || hi > h+1 {
		panic(fmt.Sprintf("dsp: bin run [%d, %d) outside [0, %d]", lo, hi, h))
	}
	if lo < hi && (lo == 0 || hi > h) {
		r.interior = false
	}
	for k := lo; k < hi; k++ {
		r.bins = append(r.bins, k)
	}
	r.end = append(r.end, len(r.bins))
}

// PeakAmplitudesScratch estimates, for each run of bins, the amplitude
// of a sinusoid spanning all of x from the peak power of the windowed
// spectrum over the run: dst[i] = 2·√best / (len(x)·win.Gain(len(x))),
// where best is the largest |X[k]|² of run i, or 0. That is the
// amplitude a full-window tone of the run's frequency reads at, since
// its bin magnitude is A·n·gain/2. Every value equals the same formula
// over powerAt's powers, bit for bit. On amd64 CPUs
// with AVX-512, runs that keep off bins 0 and N/2 run in peakAVX512. r
// must have been built for p.N; dst is reused when it has capacity,
// and s is the caller-owned workspace.
func (p *FFTPlan) PeakAmplitudesScratch(dst []float64, x []float64, win Window, r *BinRuns, s *FFTScratch) []float64 {
	if r.n != p.N {
		panic(fmt.Sprintf("dsp: bin runs built for %d points, plan has %d", r.n, p.N))
	}
	dst = growFloat(dst, len(r.end))
	n := len(x)
	coef := win.coefficients(n)
	den := float64(n) * win.Gain(n)
	if useAVX512 && r.interior {
		peakAVX512(dst, p.packedSpectrum(x, coef, s), p.twiddle, r.bins, r.end, den)
		return dst
	}
	s.vals = p.powerAt(s.vals, x, coef, r.bins, s)
	peakGo(dst, s.vals, r.end, den)
	return dst
}

// peakGo is the portable amplitude tail and peakAVX512's oracle: run i
// of pow (pow[end[i-1]:end[i]]) yields 2·√best/den, best the largest
// power of the run or 0.
func peakGo(dst, pow []float64, end []int, den float64) {
	lo := 0
	for i, hi := range end {
		best := 0.0
		for _, p := range pow[lo:hi] {
			if p > best {
				best = p
			}
		}
		dst[i] = 2 * math.Sqrt(best) / den
		lo = hi
	}
}

func (p *FFTPlan) checkReal(x []float64) {
	if len(x) > p.N {
		panic(fmt.Sprintf("dsp: real input length %d exceeds plan length %d", len(x), p.N))
	}
}

// packedSpectrum packs the (windowed, zero-padded) real input x into
// the N/2-point complex signal z[k] = x[2k] + i·x[2k+1] and transforms
// it with the half-length kernel. It returns Z, held in s. p.N must be
// >= 2.
//
// On amd64 CPUs with AVX-512, from 32 half-plan points up, frontAVX512
// packs and runs the size-2 stage and pass 0 (stages 4 and 8) in one
// pass over x (see frontFused); elsewhere pack runs the size-2 stage
// as it packs. The kernel goes on from the next stage.
func (p *FFTPlan) packedSpectrum(x []float64, coef []float64, s *FFTScratch) []complex128 {
	p.checkReal(x)
	h := p.N / 2
	s.z = growComplex(s.z, h)
	z := s.z
	if h == 1 {
		z[0] = packedAt(x, coef, 0)
		return z
	}
	if useAVX512 && h >= 32 {
		p.frontFused(z, x, coef)
		p.half.forwardPasses(z, 1)
		return z
	}
	p.pack(z, x, coef)
	p.half.forwardPasses(z, 0)
	return z
}

// frontFused is pack followed by pass 0 of the half plan, in one call
// to frontAVX512: slot 8i+u of the N/2-point half plan holds packed point
// rev(i) + (N/16)·rev₃(u), so the size-2, 4 and 8 stages act on N/16
// independent groups of eight slots, which the kernel loads from x,
// transforms in registers and stores as one 128-byte run each. It needs
// AVX-512 and N >= 64.
func (p *FFTPlan) frontFused(z []complex128, x, coef []float64) {
	h := p.N / 2
	m := len(x)
	if coef != nil {
		coef = coef[:m]
	}
	var lim [8]int64
	for r := range lim {
		lim[r] = int64(m - r*h/4)
	}
	frontAVX512(z[:h], x, coef, p.half.rev[:h/32], p.half.passes[0], &lim)
}

// pack writes the packed points of x, scaled by coef when non-nil, into
// their bit-reversed slots of z and runs the size-2 stage as it goes:
// slots rev[r] and rev[r]+1 hold z[r] and z[r+N/4], so x is read in
// order and each pair is combined and written once. p.N must be >= 4.
func (p *FFTPlan) pack(z []complex128, x, coef []float64) {
	h := p.N / 2
	// Point r < q = N/4 of z and point r+q go to slots j = rev[r] (even,
	// since r < q) and j+1. Both have their two samples in x below nb,
	// point r below na; past the input a point is zero.
	q := h / 2
	rev := p.half.rev[:q]
	m := len(x)
	nb, na := min(max(m/2-q, 0), q), min(m/2, q)
	xa, xb := x[:2*na], x[min(2*q, m):][:2*nb]
	var ca, cb []float64
	if coef != nil {
		ca, cb = coef[:2*na], coef[min(2*q, m):][:2*nb]
	}
	packBoth(z, rev[:nb], xa, xb, ca, cb)
	r := nb
	if r < na && 2*(r+q) < m { // point r+q holds one odd last sample
		a, b := packedAt(x, coef, r), packedAt(x, coef, r+q)
		z[rev[r]], z[rev[r]+1] = a+b, a-b
		r++
	}
	if ca != nil {
		ca = ca[2*r:]
	}
	packFirst(z, rev[r:na], xa[2*r:], ca)
	for r = na; r < q; r++ {
		a, b := packedAt(x, coef, r), packedAt(x, coef, r+q)
		z[rev[r]], z[rev[r]+1] = a+b, a-b
	}
}

// packBoth writes slots rev[r] and rev[r]+1 for every r: the size-2
// butterfly of the packed points a = xa[2r] + i·xa[2r+1] and b, read
// from xb the same way, each sample scaled by ca or cb when non-nil.
func packBoth(z []complex128, rev []int32, xa, xb, ca, cb []float64) {
	n := 2 * len(rev)
	xa, xb = xa[:n], xb[:n]
	if ca == nil {
		for r, j := range rev {
			a, b := complex(xa[2*r], xa[2*r+1]), complex(xb[2*r], xb[2*r+1])
			z[j], z[j+1] = a+b, a-b
		}
		return
	}
	ca, cb = ca[:n], cb[:n]
	for r, j := range rev {
		a := complex(float64(xa[2*r]*ca[2*r]), float64(xa[2*r+1]*ca[2*r+1]))
		b := complex(float64(xb[2*r]*cb[2*r]), float64(xb[2*r+1]*cb[2*r+1]))
		z[j], z[j+1] = a+b, a-b
	}
}

// packFirst is packBoth with b zero. Adding it still turns a -0 into
// +0, as the size-2 stage does.
func packFirst(z []complex128, rev []int32, xa, ca []float64) {
	var zero complex128
	n := 2 * len(rev)
	xa = xa[:n]
	if ca == nil {
		for r, j := range rev {
			a := complex(xa[2*r], xa[2*r+1])
			z[j], z[j+1] = a+zero, a-zero
		}
		return
	}
	ca = ca[:n]
	for r, j := range rev {
		a := complex(float64(xa[2*r]*ca[2*r]), float64(xa[2*r+1]*ca[2*r+1]))
		z[j], z[j+1] = a+zero, a-zero
	}
}

// packedAt is z[k] of the packed real input: x[2k] + i·x[2k+1], each
// sample scaled by its window coefficient when coef is non-nil, and
// zero past the end of x.
func packedAt(x, coef []float64, k int) complex128 {
	var re, im float64
	if i := 2 * k; i < len(x) {
		re = x[i]
		if coef != nil {
			re *= coef[i]
		}
	}
	if i := 2*k + 1; i < len(x) {
		im = x[i]
		if coef != nil {
			im *= coef[i]
		}
	}
	return complex(re, im)
}

// splitEdges returns bins 0 and N/2 of the real spectrum from Z[0].
func splitEdges(z0 complex128) (dc, nyquist complex128) {
	return complex(real(z0)+imag(z0), 0), complex(real(z0)-imag(z0), 0)
}

// split returns bin k (0 < k < N/2) of the real spectrum from the
// packed spectrum Z, given zk = Z[k], zm = Z[h-k] and wk = w^k:
// X[k] = (A - i*w^k*B)/2 where A = Z[k]+conj(Z[h-k]),
// B = Z[k]-conj(Z[h-k]), w = exp(-2πi/N). It takes the values rather
// than the slice and index so that, with its products unfused, it still
// fits the inliner's budget in the per-bin loops.
func split(zk, zm, wk complex128) complex128 {
	zm = conj(zm)
	a := zk + zm
	b := zk - zm
	c := cmul(wk, b)
	// -i*c = complex(imag(c), -real(c))
	return complex(0.5*(real(a)+imag(c)), 0.5*(imag(a)-real(c)))
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
// capacity, and returns the result. It does not halve the length:
// pass a half spectrum (e.g. from RealSpectrumInto) to get the
// non-negative frequency bins.
func MagnitudesInto(dst []float64, spec []complex128) []float64 {
	dst = growFloat(dst, len(spec))
	magnitudesInto(dst, spec)
	return dst
}

func magnitudesInto(dst []float64, spec []complex128) {
	for i, c := range spec {
		re, im := real(c), imag(c)
		dst[i] = math.Sqrt(float64(re*re) + float64(im*im))
	}
}

func powerInto(dst []float64, spec []complex128) {
	for i, c := range spec {
		dst[i] = power(c)
	}
}

func power(c complex128) float64 {
	re, im := real(c), imag(c)
	return float64(re*re) + float64(im*im)
}

// cmul is a*w as Go's complex multiply computes it, with each product
// written float64(x*y): the explicit conversion rounds it, so no
// architecture may fuse it with the following add or subtract into one
// multiply-add (arm64 otherwise does), and every transform is
// bit-identical on every GOARCH.
func cmul(a, w complex128) complex128 {
	return complex(float64(real(a)*real(w))-float64(imag(a)*imag(w)), float64(real(a)*imag(w))+float64(imag(a)*real(w)))
}
