package dsp

import (
	"math"
	"testing"
)

func sine(freq, sampleRate float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Sin(2 * math.Pi * freq * float64(i) / sampleRate)
	}
	return out
}

func TestGoertzelMatchesFFTBin(t *testing.T) {
	const (
		n          = 4096
		sampleRate = 44100.0
	)
	// Pick a bin-aligned frequency so the FFT bin holds all energy.
	k := 100
	freq := BinFrequency(k, n, sampleRate)
	x := sine(freq, sampleRate, n)

	g := Goertzel(x, freq, sampleRate)
	spec := FFTReal(x)
	fftMag := MagnitudesInto(nil, spec)[k]
	if math.Abs(g-fftMag) > 1e-6*fftMag {
		t.Errorf("Goertzel = %g, FFT bin = %g", g, fftMag)
	}
}

func TestGoertzelDetectsPresentTone(t *testing.T) {
	const sampleRate = 44100.0
	x := sine(700, sampleRate, 2048)
	present := Goertzel(x, 700, sampleRate)
	absent := Goertzel(x, 1500, sampleRate)
	if present < 10*absent {
		t.Errorf("present tone %g should dominate absent %g", present, absent)
	}
}

func TestGoertzelDiscriminates20Hz(t *testing.T) {
	// The paper's claim: ~20 Hz spacing suffices to tell tones apart.
	const sampleRate = 44100.0
	// 100 ms window gives 10 Hz resolution.
	n := int(0.1 * sampleRate)
	x := sine(1000, sampleRate, n)
	at1000 := Goertzel(x, 1000, sampleRate)
	at1020 := Goertzel(x, 1020, sampleRate)
	if at1000 < 3*at1020 {
		t.Errorf("tone at 1000 Hz (%g) should be well above response at 1020 Hz (%g)", at1000, at1020)
	}
}

func TestGoertzelEmptyAndInvalid(t *testing.T) {
	if Goertzel(nil, 440, 44100) != 0 {
		t.Error("nil samples should give 0")
	}
	if Goertzel([]float64{1, 2}, 440, 0) != 0 {
		t.Error("zero sample rate should give 0")
	}
}

func TestGoertzelBankOrder(t *testing.T) {
	const sampleRate = 44100.0
	x := sine(600, sampleRate, 4096)
	freqs := []float64{500, 600, 700}
	mags := goertzelBank(x, freqs, sampleRate)
	if len(mags) != 3 {
		t.Fatalf("len = %d, want 3", len(mags))
	}
	if mags[1] < mags[0] || mags[1] < mags[2] {
		t.Errorf("bank should peak at 600 Hz: %v", mags)
	}
}
