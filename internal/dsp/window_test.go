package dsp

import (
	"math"
	"testing"
)

func TestWindowNames(t *testing.T) {
	cases := map[Window]string{
		Rectangular: "rectangular",
		Hann:        "hann",
		Hamming:     "hamming",
		Blackman:    "blackman",
		Window(99):  "unknown",
	}
	for w, want := range cases {
		if got := w.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", w, got, want)
		}
	}
}

func TestWindowCoefficientsBounds(t *testing.T) {
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
		coef := w.compute(257)
		if len(coef) != 257 {
			t.Fatalf("%v: len = %d", w, len(coef))
		}
		for i, c := range coef {
			if c < -1e-12 || c > 1+1e-12 {
				t.Errorf("%v coef[%d] = %g out of [0,1]", w, i, c)
			}
		}
	}
}

func TestWindowSymmetry(t *testing.T) {
	for _, w := range []Window{Hann, Hamming, Blackman} {
		coef := w.compute(128)
		for i := range coef {
			j := len(coef) - 1 - i
			if math.Abs(coef[i]-coef[j]) > 1e-12 {
				t.Errorf("%v not symmetric at %d/%d: %g vs %g", w, i, j, coef[i], coef[j])
			}
		}
	}
}

func TestHannEndpointsAndPeak(t *testing.T) {
	coef := Hann.compute(101)
	if coef[0] > 1e-12 || coef[100] > 1e-12 {
		t.Errorf("Hann endpoints = %g, %g, want 0", coef[0], coef[100])
	}
	if math.Abs(coef[50]-1) > 1e-12 {
		t.Errorf("Hann midpoint = %g, want 1", coef[50])
	}
}

func TestWindowDegenerateSizes(t *testing.T) {
	if Hann.coefficients(0) != nil {
		t.Error("size 0 should give nil")
	}
	one := Hann.compute(1)
	if len(one) != 1 || one[0] != 1 {
		t.Errorf("size 1 should give [1], got %v", one)
	}
}

func TestWindowApply(t *testing.T) {
	x := []float64{1, 1, 1, 1, 1}
	Hann.Apply(x)
	if x[0] > 1e-12 || math.Abs(x[2]-1) > 1e-12 {
		t.Errorf("Apply failed: %v", x)
	}
	y := []float64{2, 2}
	Rectangular.Apply(y)
	if y[0] != 2 || y[1] != 2 {
		t.Errorf("Rectangular.Apply should not modify: %v", y)
	}
}

func TestWindowGain(t *testing.T) {
	if g := Rectangular.Gain(64); math.Abs(g-1) > 1e-12 {
		t.Errorf("rectangular gain = %g, want 1", g)
	}
	// Hann coherent gain tends to 0.5 for large n.
	if g := Hann.Gain(4096); math.Abs(g-0.5) > 0.001 {
		t.Errorf("hann gain = %g, want ~0.5", g)
	}
	if Hann.Gain(0) != 0 {
		t.Error("gain of empty window should be 0")
	}
}

func TestHannReducesLeakage(t *testing.T) {
	// A non-bin-aligned tone leaks less into a far bin under Hann
	// than under a rectangular window.
	const (
		n          = 2048
		sampleRate = 44100.0
	)
	freq := BinFrequency(100, n, sampleRate) + 0.5*BinResolution(n, sampleRate)
	raw := sine(freq, sampleRate, n)

	rect := make([]float64, n)
	copy(rect, raw)
	rectSpec := MagnitudesInto(nil, FFTReal(Rectangular.Apply(rect)))

	hann := make([]float64, n)
	copy(hann, raw)
	hannSpec := MagnitudesInto(nil, FFTReal(Hann.Apply(hann)))

	farBin := 130
	if hannSpec[farBin] >= rectSpec[farBin] {
		t.Errorf("hann leakage %g should be below rectangular %g at bin %d",
			hannSpec[farBin], rectSpec[farBin], farBin)
	}
}
