package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// naiveDFT is the O(N²) textbook transform the planned engine is
// checked against: X[k] = sum_n x[n] * exp(-2*pi*i*n*k/N).
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for i := 0; i < n; i++ {
			s, c := math.Sincos(-2 * math.Pi * float64(i) * float64(k) / float64(n))
			sum += x[i] * complex(c, s)
		}
		out[k] = sum
	}
	return out
}

func randomReal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = 2*rng.Float64() - 1
	}
	return x
}

// goldenSizes covers every length 1..64 (all parity/edge cases of the
// packed split) plus larger sizes up to 4096, including non-powers of
// two that exercise the zero-pad path.
func goldenSizes() []int {
	var sizes []int
	for n := 1; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 100, 128, 255, 256, 257, 512, 1000, 1024, 2048, 2205, 4095, 4096)
	return sizes
}

// TestPlanMatchesNaiveDFT checks the planned complex transform and the
// packed real-input transform against the naive DFT to 1e-9 across
// sizes 1..4096, zero-padding non-power-of-two inputs exactly as the
// WindowedSpectrum front end does.
func TestPlanMatchesNaiveDFT(t *testing.T) {
	const tol = 1e-9
	for _, n := range goldenSizes() {
		x := randomReal(n, int64(n))
		padded := NextPowerOfTwo(n)
		ref := make([]complex128, padded)
		for i, v := range x {
			ref[i] = complex(v, 0)
		}
		want := naiveDFT(ref)

		// Complex transform on the plan.
		p := PlanFFT(padded)
		got := make([]complex128, padded)
		copy(got, ref)
		p.Transform(got)
		for k := range want {
			if d := cmplx.Abs(got[k] - want[k]); d > tol {
				t.Fatalf("n=%d Transform bin %d: |Δ| = %g > %g", n, k, d, tol)
			}
		}

		// Packed real transform (half spectrum, zero-pad inside).
		spec := p.RealSpectrumInto(nil, x)
		if len(spec) != padded/2+1 {
			t.Fatalf("n=%d RealSpectrumInto length %d, want %d", n, len(spec), padded/2+1)
		}
		for k := range spec {
			if d := cmplx.Abs(spec[k] - want[k]); d > tol {
				t.Fatalf("n=%d RealSpectrumInto bin %d: |Δ| = %g > %g", n, k, d, tol)
			}
		}

		// Round trip through the plan's inverse.
		inv := make([]complex128, padded)
		copy(inv, got)
		p.InverseTransform(inv)
		for k := range ref {
			if d := cmplx.Abs(inv[k] - ref[k]); d > tol {
				t.Fatalf("n=%d InverseTransform sample %d: |Δ| = %g > %g", n, k, d, tol)
			}
		}
	}
}

// TestWindowedIntoMatchesWrappers pins the Into paths to the public
// wrappers bit-for-bit (same plan, same code path underneath).
func TestWindowedIntoMatchesWrappers(t *testing.T) {
	x := randomReal(2205, 9)
	p := PlanFFT(NextPowerOfTwo(len(x)))
	for _, win := range []Window{Rectangular, Hann, Hamming, Blackman} {
		wantMags, n1 := WindowedSpectrum(x, win)
		gotMags := p.WindowedSpectrumInto(nil, x, win)
		if n1 != p.N || len(wantMags) != len(gotMags) {
			t.Fatalf("%v: size mismatch (%d vs %d, %d vs %d)", win, n1, p.N, len(wantMags), len(gotMags))
		}
		for k := range wantMags {
			if wantMags[k] != gotMags[k] {
				t.Fatalf("%v: magnitude bin %d differs: %g vs %g", win, k, wantMags[k], gotMags[k])
			}
		}
		wantPow, _ := WindowedPowerSpectrum(x, win)
		gotPow := p.WindowedPowerSpectrumInto(nil, x, win)
		for k := range wantPow {
			if wantPow[k] != gotPow[k] {
				t.Fatalf("%v: power bin %d differs: %g vs %g", win, k, wantPow[k], gotPow[k])
			}
		}
	}
}

// TestIntoReusesCapacity checks the zero-allocation contract: a
// destination with enough capacity is returned with the same backing
// array.
func TestIntoReusesCapacity(t *testing.T) {
	x := randomReal(256, 4)
	p := PlanFFT(256)
	dst := make([]float64, 0, 129)
	out := p.WindowedSpectrumInto(dst, x, Hann)
	if &out[0] != &dst[:1][0] {
		t.Error("WindowedSpectrumInto reallocated despite sufficient capacity")
	}
	cdst := make([]complex128, 0, 129)
	cout := p.RealSpectrumInto(cdst, x)
	if &cout[0] != &cdst[:1][0] {
		t.Error("RealSpectrumInto reallocated despite sufficient capacity")
	}
}

// sampleOuterMagnitudes is the bank's former kernel, kept as an
// oracle: samples outer, resonators inner, each resonator's state
// round-tripping through two slices on every sample.
func sampleOuterMagnitudes(freqs []float64, sampleRate float64, samples []float64) []float64 {
	out := make([]float64, len(freqs))
	if len(samples) == 0 {
		return out
	}
	coeff := make([]float64, len(freqs))
	for i, f := range freqs {
		coeff[i] = 2 * math.Cos(2*math.Pi*f/sampleRate)
	}
	s1 := make([]float64, len(freqs))
	s2 := make([]float64, len(freqs))
	for _, x := range samples {
		for j, c := range coeff {
			s0 := x + c*s1[j] - s2[j]
			s2[j] = s1[j]
			s1[j] = s0
		}
	}
	for j := range out {
		power := s1[j]*s1[j] + s2[j]*s2[j] - coeff[j]*s1[j]*s2[j]
		if power < 0 {
			power = 0
		}
		out[j] = math.Sqrt(power)
	}
	return out
}

// bankFreqs returns n distinct, non-bin-aligned watch frequencies.
func bankFreqs(n int) []float64 {
	freqs := make([]float64, n)
	for i := range freqs {
		freqs[i] = 300 + 83.7*float64(i)
	}
	return freqs
}

// goertzelBank evaluates many frequencies over the same block through
// a one-off GoertzelPlan: one magnitude per requested frequency, in
// order.
func goertzelBank(samples []float64, freqs []float64, sampleRate float64) []float64 {
	return NewGoertzelPlan(freqs, sampleRate).MagnitudesInto(nil, samples)
}

// goertzelKernel is one bank kernel called directly, bypassing the
// dispatch in MagnitudesInto.
type goertzelKernel struct {
	name string
	run  func(gp *GoertzelPlan, dst, block []float64) []float64
}

// goertzelKernels returns the dispatched bank, its passes run one by
// one in reverse order, and every kernel this host can run — the portable one always, the AVX2 and AVX-512 ones
// where the CPU has them — and logs which ran and which were skipped.
func goertzelKernels(t testing.TB) []goertzelKernel {
	direct := func(k bankKernel) func(*GoertzelPlan, []float64, []float64) []float64 {
		return func(gp *GoertzelPlan, dst, block []float64) []float64 {
			dst = growFloat(dst, gp.n)
			for p := range gp.passes(k) {
				gp.pass(k, dst, block, p)
			}
			return dst
		}
	}
	kernels := []goertzelKernel{
		{"dispatched", (*GoertzelPlan).MagnitudesInto},
		{"passes, last first", func(gp *GoertzelPlan, dst, block []float64) []float64 {
			dst = growFloat(dst, gp.n)
			for p := gp.Passes() - 1; p >= 0; p-- {
				gp.PassInto(dst, block, p)
			}
			return dst
		}},
		{"portable", direct(kernelGo)},
	}
	if useAVX2 {
		kernels = append(kernels, goertzelKernel{"avx2", direct(kernelAVX2)})
	} else {
		t.Log("skipping the AVX2 kernel: this CPU lacks AVX2")
	}
	if useAVX512 {
		kernels = append(kernels, goertzelKernel{"avx512", direct(kernelAVX512)})
	} else {
		t.Log("skipping the AVX-512 kernel: this CPU lacks AVX-512F")
	}
	for _, k := range kernels {
		t.Logf("running the %s kernel", k.name)
	}
	return kernels
}

// TestGoertzelPlanMatchesGoertzel checks the planned bank bit for bit
// against the per-frequency Goertzel and the sample-outer loop, over
// watch counts that leave every partial width of the 24-lane AVX2
// block (and so of the portable kernel's 6-lane one), every AVX-512
// chain count from 1 to 10, and one- to four-pass AVX-512 splits,
// and sample counts of both parities. It checks the dispatched bank
// and each kernel the host can run, called directly, so the fallbacks
// stay tested on every host. One plan serves every trial, so no state
// may leak from one block or pass into the next.
func TestGoertzelPlanMatchesGoertzel(t *testing.T) {
	const sampleRate = 44100.0
	x := randomReal(2205, 11)
	watch := []int{0}
	for nf := 1; nf <= 25; nf++ {
		watch = append(watch, nf)
	}
	watch = append(watch, 32, 33, 47, 48, 49, 56, 64, 65, 72, 79, 80, 81, 130, 136, 145, 160, 161, 192, 241)
	kernels := goertzelKernels(t)
	for _, nf := range watch {
		freqs := bankFreqs(nf)
		gp := NewGoertzelPlan(freqs, sampleRate)
		for _, k := range kernels {
			var got []float64
			for trial := 0; trial < 2; trial++ {
				for _, n := range []int{0, 1, 2, 3, 2204, 2205} {
					block := x[:n]
					got = k.run(gp, got, block)
					if len(got) != nf {
						t.Fatalf("%s: watch %d, %d samples: %d magnitudes", k.name, nf, n, len(got))
					}
					loop := sampleOuterMagnitudes(freqs, sampleRate, block)
					for i, f := range freqs {
						want := Goertzel(block, f, sampleRate)
						if math.Float64bits(got[i]) != math.Float64bits(want) {
							t.Fatalf("%s: watch %d, %d samples, freq %g: bank %g, Goertzel %g", k.name, nf, n, f, got[i], want)
						}
						if math.Float64bits(got[i]) != math.Float64bits(loop[i]) {
							t.Fatalf("%s: watch %d, %d samples, freq %g: bank %g, sample-outer loop %g", k.name, nf, n, f, got[i], loop[i])
						}
					}
				}
			}
		}
		bank := goertzelBank(x, freqs, sampleRate)
		got := gp.MagnitudesInto(nil, x)
		for i := range freqs {
			if math.Float64bits(bank[i]) != math.Float64bits(got[i]) {
				t.Fatalf("goertzelBank[%d] = %g, plan = %g", i, bank[i], got[i])
			}
		}
	}
}

// TestGoertzelPlanConcurrentSharedPlan runs one shared plan from many
// goroutines (run under -race in CI): the plan is read-only, so every
// goroutine must get the serial result.
func TestGoertzelPlanConcurrentSharedPlan(t *testing.T) {
	const (
		sampleRate = 44100.0
		goroutines = 8
		iterations = 20
	)
	x := randomReal(2205, 12)
	gp := NewGoertzelPlan(bankFreqs(130), sampleRate)
	want := gp.MagnitudesInto(nil, x)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got []float64
			for i := 0; i < iterations; i++ {
				got = gp.MagnitudesInto(got, x)
				for k := range got {
					if got[k] != want[k] {
						t.Errorf("goroutine result [%d] = %g, serial %g", k, got[k], want[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPlanConcurrentSharedPlan hammers one shared FFTPlan from many
// goroutines (run under -race in CI): the plan's tables are read-only
// and its scratch is pooled per call, so every goroutine must get the
// same spectrum.
func TestPlanConcurrentSharedPlan(t *testing.T) {
	const (
		size       = 1024
		goroutines = 8
		iterations = 50
	)
	x := randomReal(700, 21) // exercises the zero-pad path too
	p := PlanFFT(size)
	want := p.WindowedSpectrumInto(nil, x, Hann)

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mags []float64
			var spec []complex128
			for i := 0; i < iterations; i++ {
				mags = p.WindowedSpectrumInto(mags, x, Hann)
				for k := range mags {
					if mags[k] != want[k] {
						errs <- errMismatch
						return
					}
				}
				spec = p.RealSpectrumInto(spec, x)
				work := make([]complex128, size)
				for j, v := range x {
					work[j] = complex(v, 0)
				}
				p.Transform(work)
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

var errMismatch = errorString("concurrent WindowedSpectrumInto diverged from serial result")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestWindowedSpectrumScratchMatchesPooled pins the caller-owned
// scratch entry points to the pooled ones bit-for-bit: same butterfly
// schedule, same packing, only the workspace ownership differs.
func TestWindowedSpectrumScratchMatchesPooled(t *testing.T) {
	var s FFTScratch // zero value, grown on first use
	for _, n := range goldenSizes() {
		x := randomReal(n, int64(n)+99)
		p := PlanFFT(NextPowerOfTwo(n))
		for _, win := range []Window{Rectangular, Hann, Hamming} {
			pooledMag := p.WindowedSpectrumInto(nil, x, win)
			ownedMag := p.WindowedSpectrumScratch(nil, x, win, &s)
			pooledPow := p.WindowedPowerSpectrumInto(nil, x, win)
			ownedPow := p.windowedInto(nil, x, win, true, &s)
			for k := range pooledMag {
				if pooledMag[k] != ownedMag[k] {
					t.Fatalf("n=%d win=%v bin %d: scratch magnitude %g != pooled %g",
						n, win, k, ownedMag[k], pooledMag[k])
				}
				if pooledPow[k] != ownedPow[k] {
					t.Fatalf("n=%d win=%v bin %d: scratch power %g != pooled %g",
						n, win, k, ownedPow[k], pooledPow[k])
				}
			}
		}
	}
}

// TestWindowedSpectrumScratchSteadyStateAllocs is the reason the
// scratch entry points exist: a warmed caller-owned workspace never
// touches the GC-clearable pool, so repeated calls allocate nothing.
func TestWindowedSpectrumScratchSteadyStateAllocs(t *testing.T) {
	x := randomReal(2205, 5) // a 50 ms window at 44.1 kHz
	p := PlanFFT(NextPowerOfTwo(len(x)))
	var s FFTScratch
	dst := p.WindowedSpectrumScratch(nil, x, Hann, &s) // warm up
	allocs := testing.AllocsPerRun(100, func() {
		dst = p.WindowedSpectrumScratch(dst, x, Hann, &s)
	})
	if allocs != 0 {
		t.Errorf("steady-state WindowedSpectrumScratch allocates %.1f objects/op, want 0", allocs)
	}
}
