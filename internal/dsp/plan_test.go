package dsp

import (
	"math"
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
			if d := cabs(got[k] - want[k]); d > tol {
				t.Fatalf("n=%d Transform bin %d: |Δ| = %g > %g", n, k, d, tol)
			}
		}

		// Packed real transform (half spectrum, zero-pad inside).
		spec := p.RealSpectrumInto(nil, x)
		if len(spec) != padded/2+1 {
			t.Fatalf("n=%d RealSpectrumInto length %d, want %d", n, len(spec), padded/2+1)
		}
		for k := range spec {
			if d := cabs(spec[k] - want[k]); d > tol {
				t.Fatalf("n=%d RealSpectrumInto bin %d: |Δ| = %g > %g", n, k, d, tol)
			}
		}

		// Round trip through the plan's inverse.
		inv := make([]complex128, padded)
		copy(inv, got)
		p.InverseTransform(inv)
		for k := range ref {
			if d := cabs(inv[k] - ref[k]); d > tol {
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

// TestGoertzelPlanMatchesGoertzel checks the single-pass bank against
// the per-frequency reference.
func TestGoertzelPlanMatchesGoertzel(t *testing.T) {
	const sampleRate = 44100.0
	x := randomReal(2205, 11)
	freqs := []float64{440, 523.25, 700, 880, 1000.5, 2000}
	gp := NewGoertzelPlan(freqs, sampleRate)
	var got []float64
	for trial := 0; trial < 3; trial++ { // state must fully reset between blocks
		got = gp.MagnitudesInto(got, x)
		for i, f := range freqs {
			want := Goertzel(x, f, sampleRate)
			if math.Abs(got[i]-want) > 1e-9*(1+want) {
				t.Fatalf("trial %d freq %g: bank %g, reference %g", trial, f, got[i], want)
			}
		}
	}
	bank := GoertzelBank(x, freqs, sampleRate)
	for i := range freqs {
		if bank[i] != got[i] {
			t.Fatalf("GoertzelBank[%d] = %g, plan = %g", i, bank[i], got[i])
		}
	}
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
