package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleTransform is the radix-2 butterfly loop the fused kernel
// replaced, kept verbatim: a bit-reversal swap pass, then one pass per
// stage reading twiddle with stride N/size. sign is +1 for the forward
// transform, -1 for the inverse (which conjugates the twiddle factors).
func (p *FFTPlan) oracleTransform(x []complex128, sign float64) {
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

// oracleRealSpectrum is the packed real-input transform as it stood on
// the oracle loop: sequential packing, the swap pass inside the
// transform, and the split over every bin.
func (p *FFTPlan) oracleRealSpectrum(x []float64, coef []float64) []complex128 {
	n := p.N
	h := n / 2
	dst := make([]complex128, h+1)
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
	z := make([]complex128, h)
	m := len(x)
	full := m / 2
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
	p.half.oracleTransform(z, 1)
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
		dst[k] = complex(0.5*(real(a)+imag(c)), 0.5*(imag(a)-real(c)))
	}
	return dst
}

// kernelSizes is every power of two from 1 to 4096: odd and even stage
// counts, so both the paired passes and the unpaired last stage run.
func kernelSizes() []int {
	var sizes []int
	for n := 1; n <= 4096; n *= 2 {
		sizes = append(sizes, n)
	}
	return sizes
}

// randomComplex draws n complex samples; zeroFrom > 0 zero-pads from
// that index on, so exact zeros flow through the butterflies.
func randomComplex(n, zeroFrom int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		if zeroFrom > 0 && i >= zeroFrom {
			break
		}
		x[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	return x
}

// TestKernelMatchesOracleTransform holds the fused kernel to the old
// butterfly loop under == (which equates +0 and -0) for the forward and
// the conjugated inverse transform, on random and zero-padded inputs.
func TestKernelMatchesOracleTransform(t *testing.T) {
	for _, n := range kernelSizes() {
		p := PlanFFT(n)
		for _, zeroFrom := range []int{0, n/2 + 1, n / 4, 1} {
			x := randomComplex(n, zeroFrom, int64(n+zeroFrom))

			got := append([]complex128(nil), x...)
			p.Transform(got)
			want := append([]complex128(nil), x...)
			p.oracleTransform(want, 1)
			requireEqualComplex(t, fmt.Sprintf("forward n=%d zeroFrom=%d", n, zeroFrom), got, want)

			got = append(got[:0], x...)
			p.InverseTransform(got)
			want = append(want[:0], x...)
			p.oracleTransform(want, -1)
			inv := 1 / float64(n)
			for i := range want {
				want[i] = complex(real(want[i])*inv, imag(want[i])*inv)
			}
			requireEqualComplex(t, fmt.Sprintf("inverse n=%d zeroFrom=%d", n, zeroFrom), got, want)
		}
	}
}

// TestRealSpectrumMatchesOracle holds the bit-reversed packing and the
// kernel under it to the oracle's real-input transform, raw and under
// every window, at full length and zero-padded.
func TestRealSpectrumMatchesOracle(t *testing.T) {
	var s FFTScratch
	for _, n := range kernelSizes() {
		p := PlanFFT(n)
		for _, m := range []int{0, 1, n/2 + 1, n - 1, n} {
			if m > n || m < 0 {
				continue
			}
			x := randomReal(m, int64(7*n+m))
			for _, win := range []Window{Rectangular, Hann, Hamming, Blackman} {
				coef := win.coefficients(m)
				got := p.realSpectrumWindowed(nil, x, coef, &s)
				want := p.oracleRealSpectrum(x, coef)
				requireEqualComplex(t, fmt.Sprintf("n=%d m=%d %v", n, m, win), got, want)
			}
		}
	}
	// The detector's shape: 2205 samples into 4096 points.
	x := randomReal(2205, 11)
	p := PlanFFT(4096)
	coef := Hann.coefficients(len(x))
	requireEqualComplex(t, "n=4096 m=2205 hann", p.realSpectrumWindowed(nil, x, coef, &s), p.oracleRealSpectrum(x, coef))
}

// TestWindowedPowerAtMatchesSpectrum requires the band-limited entry
// point to reproduce the full power spectrum at every requested bin,
// and its square root the magnitude spectrum, bit for bit: DC and
// Nyquist included, bins repeated and unsorted, all four windows,
// inputs of length 1, odd, 2205 and N.
func TestWindowedPowerAtMatchesSpectrum(t *testing.T) {
	var s FFTScratch
	var pow, full, mags []float64
	for _, n := range []int{1, 2, 4, 8, 64, 4096} {
		p := PlanFFT(n)
		h := n / 2
		bins := []int{h, 0, h / 2, 0, h, h / 3, 1 % (h + 1), h / 2}
		for _, m := range []int{1, n/2 + 1 | 1, 2205, n} {
			if m > n {
				continue
			}
			x := randomReal(m, int64(n*31+m))
			for _, win := range []Window{Rectangular, Hann, Hamming, Blackman} {
				pow = p.powerAt(pow, x, win.coefficients(len(x)), bins, &s)
				full = p.windowedInto(full, x, win, true, &s)
				mags = p.WindowedSpectrumScratch(mags, x, win, &s)
				if len(pow) != len(bins) {
					t.Fatalf("n=%d m=%d %v: %d values for %d bins", n, m, win, len(pow), len(bins))
				}
				for i, k := range bins {
					if pow[i] != full[k] {
						t.Fatalf("n=%d m=%d %v bin %d: power %v, spectrum %v", n, m, win, k, pow[i], full[k])
					}
					if math.Sqrt(pow[i]) != mags[k] {
						t.Fatalf("n=%d m=%d %v bin %d: sqrt(power) %v, magnitude %v", n, m, win, k, math.Sqrt(pow[i]), mags[k])
					}
				}
			}
		}
	}
}

func requireEqualComplex(t *testing.T, name string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: bin %d = %v, oracle %v", name, i, got[i], want[i])
		}
	}
}

// TestFFTKernelsBitIdentical holds the dispatched pass kernel (passWide
// or passAVX2 on amd64 CPUs that have them) to the portable passGo under
// math.Float64bits, through every entry point that runs the forward
// kernel: Transform and InverseTransform on complex inputs, and
// RealSpectrumInto and powerAt (every bin, all four
// windows) on real inputs of length 0, 1, 3, N/2±1, 2204, 2205 and N.
// It also holds the packing pass, which runs the size-2 stage, to
// packing into bit-reversed slots followed by the whole kernel, as it
// stood before the two were fused. Each kernel is also held to passGo
// directly: every pass kernel the CPU has on every pass of every plan,
// and the fused front end (frontAVX512) to packing followed by passGo's
// pass 0, with and without the Hann window. Sizes run from 1 to 16384,
// so odd and even stage counts and every pass width occur, on the
// inputs of kernelInputs.
func TestFFTKernelsBitIdentical(t *testing.T) {
	t.Logf("pass kernels run: %v; fused front end runs: %v", passKernelNames(), useAVX512)
	var s FFTScratch
	for n := 1; n <= 16384; n *= 2 {
		p := PlanFFT(n)
		h := n / 2
		bins := make([]int, h+1)
		for k := range bins {
			bins[k] = k
		}
		for _, in := range kernelInputs(2*n, int64(n)) {
			name, v := in.name, in.v
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(v[2*i], v[2*i+1])
			}
			requireKernelsAgree(t, fmt.Sprintf("Transform n=%d %s", n, name), func() []complex128 {
				y := append([]complex128(nil), x...)
				p.Transform(y)
				return y
			})
			requireKernelsAgree(t, fmt.Sprintf("InverseTransform n=%d %s", n, name), func() []complex128 {
				y := append([]complex128(nil), x...)
				p.InverseTransform(y)
				return y
			})
			for _, k := range passKernels() {
				for i, tw := range p.passes {
					if k.wide && len(tw)%12 != 0 {
						continue
					}
					got, want := append([]complex128(nil), x...), append([]complex128(nil), x...)
					k.run(got, tw)
					passGo(want, tw)
					requireSameBits(t, fmt.Sprintf("pass %d (h=%d) n=%d %s: %s", i, len(tw)/3, n, name, k.name), got, want)
				}
			}
			for _, m := range []int{0, 1, 3, h - 1, h + 1, 2204, 2205, n} {
				if m > n || m < 0 {
					continue
				}
				r := v[:m]
				requireKernelsAgree(t, fmt.Sprintf("RealSpectrumInto n=%d m=%d %s", n, m, name), func() []complex128 {
					return p.RealSpectrumInto(nil, r)
				})
				if useAVX512 && h >= 32 {
					for _, win := range []Window{Rectangular, Hann} {
						coef := win.coefficients(m)
						got, want := make([]complex128, h), make([]complex128, h)
						p.frontFused(got, r, coef)
						p.pack(want, r, coef)
						passGo(want, p.half.passes[0])
						requireSameBits(t, fmt.Sprintf("frontAVX512 n=%d m=%d %v %s", n, m, win, name), got, want)
					}
				}
				for _, win := range []Window{Rectangular, Hann, Hamming, Blackman} {
					if n > 1 {
						coef := win.coefficients(m)
						requireSameBits(t, fmt.Sprintf("packedSpectrum n=%d m=%d %v %s", n, m, win, name),
							p.packedSpectrum(r, coef, &s), p.unfusedPacked(r, coef))
					}
					requireKernelsAgree(t, fmt.Sprintf("powerAt n=%d m=%d %v %s", n, m, win, name), func() []complex128 {
						pow := p.powerAt(nil, r, win.coefficients(len(r)), bins, &s)
						c := make([]complex128, len(pow))
						for i, v := range pow {
							c[i] = complex(v, 0)
						}
						return c
					})
				}
			}
		}
	}
}

// TestPeakAmplitudesBitIdentical holds the power tail to split, |X|²
// and the scalar amplitude formula bit for bit: PeakAmplitudesScratch
// against the formula over powerAt's powers, and the
// vector kernel peakAVX512 (where the CPU has AVX-512) against peakGo
// over the same packed spectrum. Runs are 0 to 9 bins long, at every
// offset of a vector, next to bins 0 and N/2 and on them (where the
// scalar tail takes over), over plans of 2 to 8192 points, inputs of
// length 1, N/2+1, 2205 and N from kernelInputs, and a spectrum with
// NaNs, which both skip.
func TestPeakAmplitudesBitIdentical(t *testing.T) {
	t.Logf("vector power tail runs: %v", useAVX512)
	var s FFTScratch
	for n := 2; n <= 8192; n *= 2 {
		p := PlanFFT(n)
		h := n / 2
		// runs holds every run; interior those the vector kernel takes.
		var runs, interior BinRuns
		runs.Reset(n)
		interior.Reset(n)
		for lo := 0; lo <= h+1; lo++ {
			if lo > 8 && lo < h-9 && lo%7 != 0 {
				continue
			}
			for c := 0; c <= 9 && lo+c <= h+1; c++ {
				runs.Add(lo, lo+c)
				if c == 0 || (lo > 0 && lo+c <= h) {
					interior.Add(lo, lo+c)
				}
			}
		}
		for _, in := range kernelInputs(n, int64(3*n)) {
			for _, m := range []int{1, h + 1, 2205, n} {
				if m > n {
					continue
				}
				x := in.v[:m]
				for _, win := range []Window{Rectangular, Hann} {
					name := fmt.Sprintf("n=%d m=%d %v %s", n, m, win, in.name)
					den := float64(m) * win.Gain(m)
					for _, r := range []*BinRuns{&runs, &interior} {
						got := p.PeakAmplitudesScratch(nil, x, win, r, &s)
						want := make([]float64, len(r.end))
						peakGo(want, p.powerAt(nil, x, win.coefficients(len(x)), r.bins, &s), r.end, den)
						requireSameFloats(t, "PeakAmplitudesScratch "+name, got, want)
					}
					if useAVX512 && n >= 4 {
						z := append([]complex128(nil), p.packedSpectrum(x, win.coefficients(m), &s)...)
						if in.name == "random" {
							for i := 0; i < len(z); i += 5 {
								z[i] = complex(math.NaN(), imag(z[i]))
							}
						}
						got, want := make([]float64, len(interior.end)), make([]float64, len(interior.end))
						peakAVX512(got, z, p.twiddle, interior.bins, interior.end, den)
						peakGo(want, p.powerAtPacked(nil, z, interior.bins), interior.end, den)
						requireSameFloats(t, "peakAVX512 "+name, got, want)
					}
				}
			}
		}
	}
}

// TestBinRunsRejectsOutOfRange requires BinRuns.Add to refuse a run
// that leaves the half spectrum or ends before it starts, and
// PeakAmplitudesScratch a plan of another size.
func TestBinRunsRejectsOutOfRange(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	var r BinRuns
	r.Reset(8)
	for _, run := range [][2]int{{-1, 2}, {3, 2}, {4, 6}} {
		mustPanic(fmt.Sprint(run), func() { r.Add(run[0], run[1]) })
	}
	mustPanic("length 12", func() { r.Reset(12) })
	r.Add(1, 5)
	mustPanic("plan 16", func() { PlanFFT(16).PeakAmplitudesScratch(nil, randomReal(16, 1), Hann, &r, &FFTScratch{}) })
}

// requireSameFloats requires got and want to be bit-identical.
func requireSameFloats(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// kernelInputs returns n-value inputs for the kernel test: uniform in
// [-1, 1), the same zero-padded from n/4 on, +0 and -0 alone (so the
// sign of every zero output shows), a mix of +0, -0 and random values,
// and subnormals (random values scaled by 2^-1060).
func kernelInputs(n int, seed int64) []struct {
	name string
	v    []float64
} {
	rng := rand.New(rand.NewSource(seed))
	random, padded := make([]float64, n), make([]float64, n)
	zeros, mixed, subnormal := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range random {
		random[i] = 2*rng.Float64() - 1
		if i < n/4 {
			padded[i] = random[i]
		}
		switch rng.Intn(3) {
		case 0:
			zeros[i] = math.Copysign(0, -1)
			mixed[i] = zeros[i]
		case 1:
			mixed[i] = random[i]
		}
		subnormal[i] = math.Ldexp(random[i], -1060)
	}
	return []struct {
		name string
		v    []float64
	}{{"random", random}, {"padded", padded}, {"zeros", zeros}, {"mixed", mixed}, {"subnormal", subnormal}}
}

// requireKernelsAgree runs f with the dispatched pass kernel, then with
// passGo swapped in, and requires the results to be bit-identical.
func requireKernelsAgree(t *testing.T, name string, f func() []complex128) {
	t.Helper()
	got := f()
	want := func() []complex128 {
		dispatched := fftPass
		fftPass = passGo
		defer func() { fftPass = dispatched }()
		return f()
	}()
	requireSameBits(t, name+" (against the portable kernel)", got, want)
}

// requireSameBits requires got and want to be bit-identical.
func requireSameBits(t *testing.T, name string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
			t.Fatalf("%s: value %d = %v, want %v", name, i, g, w)
		}
	}
}

// unfusedPacked is packedSpectrum with the size-2 stage left in the
// kernel: every packed point goes to its bit-reversed slot, then the
// whole forward kernel runs.
func (p *FFTPlan) unfusedPacked(x, coef []float64) []complex128 {
	z := make([]complex128, p.N/2)
	for k := range z {
		z[p.half.rev[k]] = packedAt(x, coef, k)
	}
	p.half.forward(z)
	return z
}

// BenchmarkFFTKernels times each FFT kernel on the detector's shape, a
// Hann-windowed 2205-sample window in a 4096-point real transform:
// the front end as packing plus pass 0 and as the fused kernel, every
// later pass of the 2048-point half plan through each pass kernel the
// host can run, and the power tail of 128 three-bin runs (the fleet's
// watch list) as split, power and the scalar amplitude formula and as
// the vector kernel.
func BenchmarkFFTKernels(b *testing.B) {
	p := PlanFFT(4096)
	h := p.N / 2
	x := randomReal(2205, 1)
	coef := Hann.coefficients(len(x))
	z := make([]complex128, h)
	b.Run("front-pack-pass0", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.pack(z, x, coef)
			fftPass(z, p.half.passes[0])
		}
	})
	if useAVX512 {
		b.Run("front-fused", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.frontFused(z, x, coef)
			}
		})
	}
	for _, k := range passKernels() {
		for _, tw := range p.half.passes[1:] {
			b.Run(fmt.Sprintf("pass-%s-h%d", k.name, len(tw)/3), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.run(z, tw)
				}
			})
		}
	}
	var runs BinRuns
	runs.Reset(p.N)
	for i := 0; i < 128; i++ {
		k := 100 + 11*i
		runs.Add(k-1, k+2)
	}
	var s FFTScratch
	dst := make([]float64, len(runs.end))
	den := float64(len(x)) * Hann.Gain(len(x))
	spec := p.packedSpectrum(x, coef, &s)
	z = append(z[:0], spec...)
	b.Run("tail-scalar", func(b *testing.B) {
		var pow []float64
		for i := 0; i < b.N; i++ {
			pow = p.powerAtPacked(pow, z, runs.bins)
			peakGo(dst, pow, runs.end, den)
		}
	})
	if useAVX512 {
		b.Run("tail-avx512", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				peakAVX512(dst, z, p.twiddle, runs.bins, runs.end, den)
			}
		})
	}
}

// passKernelNames names the pass kernels this host can run.
func passKernelNames() []string {
	var names []string
	for _, k := range passKernels() {
		names = append(names, k.name)
	}
	return names
}

// passKernels lists the pass kernels this host can run: passGo always,
// passAVX2 and passAVX512 where the CPU has them. passAVX512 runs only
// passes whose h is a multiple of four.
func passKernels() []struct {
	name string
	run  func(x, tw []complex128)
	wide bool
} {
	ks := []struct {
		name string
		run  func(x, tw []complex128)
		wide bool
	}{{"go", passGo, false}}
	if useAVX2 {
		ks = append(ks, struct {
			name string
			run  func(x, tw []complex128)
			wide bool
		}{"avx2", passAVX2, false})
	}
	if useAVX512 {
		ks = append(ks, struct {
			name string
			run  func(x, tw []complex128)
			wide bool
		}{"avx512", passAVX512, true})
	}
	return ks
}
