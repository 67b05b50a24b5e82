package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestIsPowerOfTwo(t *testing.T) {
	cases := map[int]bool{
		-4: false, 0: false, 1: true, 2: true, 3: false,
		4: true, 1024: true, 1023: false, 1 << 20: true,
	}
	for n, want := range cases {
		if got := IsPowerOfTwo(n); got != want {
			t.Errorf("IsPowerOfTwo(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for n, want := range cases {
		if got := NextPowerOfTwo(n); got != want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestNextPowerOfTwoPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	NextPowerOfTwo(0)
}

func TestFFTPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length 3")
		}
	}()
	PlanFFT(3)
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 16)
	x[0] = 1
	PlanFFT(len(x)).Transform(x)
	for k, v := range x {
		if !almostEqual(real(v), 1, 1e-12) || !almostEqual(imag(v), 0, 1e-12) {
			t.Errorf("bin %d = %v, want 1", k, v)
		}
	}
}

func TestFFTConstant(t *testing.T) {
	// FFT of a constant signal concentrates all energy in bin 0.
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = 2.5
	}
	PlanFFT(len(x)).Transform(x)
	if !almostEqual(real(x[0]), 2.5*float64(n), 1e-9) {
		t.Errorf("bin 0 = %v, want %v", x[0], 2.5*float64(n))
	}
	for k := 1; k < n; k++ {
		if cmplx.Abs(x[k]) > 1e-9 {
			t.Errorf("bin %d = %v, want 0", k, x[k])
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A bin-aligned cosine puts N/2 magnitude at +/-k.
	n := 1024
	k := 37
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*float64(k)*float64(i)/float64(n)), 0)
	}
	PlanFFT(len(x)).Transform(x)
	want := float64(n) / 2
	if got := cmplx.Abs(x[k]); !almostEqual(got, want, 1e-6) {
		t.Errorf("bin %d magnitude = %g, want %g", k, got, want)
	}
	if got := cmplx.Abs(x[n-k]); !almostEqual(got, want, 1e-6) {
		t.Errorf("bin %d magnitude = %g, want %g", n-k, got, want)
	}
	for b := 0; b < n; b++ {
		if b == k || b == n-k {
			continue
		}
		if cmplx.Abs(x[b]) > 1e-6 {
			t.Errorf("bin %d magnitude = %g, want ~0", b, cmplx.Abs(x[b]))
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 8, 256, 4096} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		PlanFFT(len(x)).Transform(x)
		PlanFFT(len(x)).InverseTransform(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d sample %d: got %v want %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	// Property: FFT(a*x + b*y) == a*FFT(x) + b*FFT(y).
	f := func(seed int64, a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		// Bound scalars to keep rounding comparable.
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		rng := rand.New(rand.NewSource(seed))
		const n = 128
		x := make([]complex128, n)
		y := make([]complex128, n)
		sum := make([]complex128, n)
		for i := 0; i < n; i++ {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			sum[i] = complex(a, 0)*x[i] + complex(b, 0)*y[i]
		}
		PlanFFT(len(x)).Transform(x)
		PlanFFT(len(y)).Transform(y)
		PlanFFT(len(sum)).Transform(sum)
		for i := 0; i < n; i++ {
			want := complex(a, 0)*x[i] + complex(b, 0)*y[i]
			if cmplx.Abs(sum[i]-want) > 1e-6*(1+cmplx.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	// Property: sum |x|^2 == (1/N) sum |X|^2.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 256
		x := make([]complex128, n)
		var timeEnergy float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			timeEnergy += real(x[i]) * real(x[i])
		}
		PlanFFT(len(x)).Transform(x)
		var freqEnergy float64
		for _, v := range x {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		freqEnergy /= float64(n)
		return almostEqual(timeEnergy, freqEnergy, 1e-6*(1+timeEnergy))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFFTRealPadsToPowerOfTwo(t *testing.T) {
	x := make([]float64, 100)
	x[0] = 1
	spec := FFTReal(x)
	if len(spec) != 128 {
		t.Fatalf("len = %d, want 128", len(spec))
	}
	if FFTReal(nil) != nil {
		t.Error("FFTReal(nil) should be nil")
	}
}

func TestMagnitudesAndPowerSpectrum(t *testing.T) {
	x := []complex128{3 + 4i, 0, 1i, 2}
	mags := MagnitudesInto(nil, x)
	if len(mags) != 4 {
		t.Fatalf("len(mags) = %d, want 4", len(mags))
	}
	if !almostEqual(mags[0], 5, 1e-12) {
		t.Errorf("mags[0] = %g, want 5", mags[0])
	}
	pow := PowerSpectrum(x)
	if len(pow) != 3 {
		t.Fatalf("len(pow) = %d, want 3", len(pow))
	}
	if !almostEqual(pow[0], 25, 1e-12) {
		t.Errorf("pow[0] = %g, want 25", pow[0])
	}
	if PowerSpectrum(nil) != nil {
		t.Error("empty input should yield nil")
	}
}

func TestBinFrequencyRoundTrip(t *testing.T) {
	const (
		fftSize    = 8192
		sampleRate = 44100.0
	)
	for _, hz := range []float64{100, 440, 500, 999.5, 5000, 20000} {
		k := FrequencyBin(hz, fftSize, sampleRate)
		back := BinFrequency(k, fftSize, sampleRate)
		if math.Abs(back-hz) > BinResolution(fftSize, sampleRate) {
			t.Errorf("round trip %g Hz -> bin %d -> %g Hz (res %g)",
				hz, k, back, BinResolution(fftSize, sampleRate))
		}
	}
	if FrequencyBin(-10, fftSize, sampleRate) != 0 {
		t.Error("negative frequency should clamp to bin 0")
	}
	if FrequencyBin(1e9, fftSize, sampleRate) != fftSize/2 {
		t.Error("above-Nyquist frequency should clamp to fftSize/2")
	}
}

func TestFFTZeroAndOneLength(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("PlanFFT(0) should panic")
			}
		}()
		PlanFFT(0)
	}()
	one := []complex128{5 + 2i}
	PlanFFT(len(one)).Transform(one)
	if one[0] != 5+2i {
		t.Errorf("FFT of singleton changed value: %v", one[0])
	}
	PlanFFT(len(one)).InverseTransform(one)
	if cmplx.Abs(one[0]-(5+2i)) > 1e-12 {
		t.Errorf("IFFT of singleton changed value: %v", one[0])
	}
}

func BenchmarkFFT2048(b *testing.B) {
	x := make([]complex128, 2048)
	rng := rand.New(rand.NewSource(7))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	work := make([]complex128, len(x))
	p := PlanFFT(len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, x)
		p.Transform(work)
	}
}

func BenchmarkGoertzelVsFFT(b *testing.B) {
	// Ablation: single-frequency check via Goertzel vs full FFT.
	const n = 2048
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = math.Sin(2 * math.Pi * 440 * float64(i) / 44100)
	}
	b.Run("goertzel-1-freq", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Goertzel(samples, 440, 44100)
		}
	})
	b.Run("fft-full", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]complex128, n)
		p := PlanFFT(n)
		for i := 0; i < b.N; i++ {
			for j, v := range samples {
				buf[j] = complex(v, 0)
			}
			p.Transform(buf)
		}
	})
	// The planned bank over one 50 ms window, through each kernel the
	// host can run: the per-kernel cost behind the Goertzel-versus-FFT
	// crossover.
	window := randomReal(2205, 1)
	for _, k := range goertzelKernels(b) {
		for _, tones := range []int{3, 24, 48, 130, 192} {
			gp := NewGoertzelPlan(bankFreqs(tones), 44100)
			b.Run(fmt.Sprintf("bank-%s-%d", k.name, tones), func(b *testing.B) {
				var mags []float64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					mags = k.run(gp, mags, window)
				}
			})
		}
	}
}

func TestWindowedSpectrum(t *testing.T) {
	x := sine(1000, 44100, 2205)
	mags, fftSize := WindowedSpectrum(x, Hann)
	if fftSize != 4096 {
		t.Fatalf("fftSize = %d", fftSize)
	}
	if len(mags) != fftSize/2+1 {
		t.Fatalf("len(mags) = %d", len(mags))
	}
	peak := 0
	for k := range mags {
		if mags[k] > mags[peak] {
			peak = k
		}
	}
	if hz := BinFrequency(peak, fftSize, 44100); math.Abs(hz-1000) > 25 {
		t.Errorf("peak at %g Hz, want ~1000", hz)
	}
	// The input must not be modified.
	if x[1000] == 0 {
		t.Skip("degenerate sample")
	}
	orig := sine(1000, 44100, 2205)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("WindowedSpectrum modified its input")
		}
	}
	if m, n := WindowedSpectrum(nil, Hann); m != nil || n != 0 {
		t.Error("empty input should give nil")
	}
}

func TestWindowedPowerSpectrumConsistent(t *testing.T) {
	x := sine(700, 44100, 1024)
	mags, n1 := WindowedSpectrum(x, Hann)
	pows, n2 := WindowedPowerSpectrum(x, Hann)
	if n1 != n2 || len(mags) != len(pows) {
		t.Fatal("shape mismatch")
	}
	for k := range mags {
		if math.Abs(pows[k]-mags[k]*mags[k]) > 1e-9*(1+pows[k]) {
			t.Fatalf("bin %d: power %g != mag^2 %g", k, pows[k], mags[k]*mags[k])
		}
	}
	if p, n := WindowedPowerSpectrum(nil, Hann); p != nil || n != 0 {
		t.Error("empty input should give nil")
	}
}
