package audio

import (
	"math"
	"testing"

	"mdn/internal/dsp"
)

func TestWhiteNoiseLevelAndDeterminism(t *testing.T) {
	a := WhiteNoise(44100, 1, 0.2, 42)
	b := WhiteNoise(44100, 1, 0.2, 42)
	c := WhiteNoise(44100, 1, 0.2, 43)
	if math.Abs(a.RMS()-0.2) > 0.02 {
		t.Errorf("rms = %g, want ~0.2", a.RMS())
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("same seed should reproduce exactly")
		}
	}
	same := true
	for i := range a.Samples {
		if a.Samples[i] != c.Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestPinkNoiseSpectralTilt(t *testing.T) {
	// Pink noise has more energy at low frequencies: compare band
	// powers around 100 Hz vs 8000 Hz.
	const sr = 44100.0
	b := PinkNoise(sr, 2, 0.2, 7)
	if math.Abs(b.RMS()-0.2) > 0.02 {
		t.Errorf("rms = %g, want ~0.2", b.RMS())
	}
	spec := dsp.PowerSpectrum(dsp.FFTReal(b.Samples[:65536]))
	bandPower := func(lo, hi float64) float64 {
		kLo := dsp.FrequencyBin(lo, 65536, sr)
		kHi := dsp.FrequencyBin(hi, 65536, sr)
		sum := 0.0
		for k := kLo; k <= kHi; k++ {
			sum += spec[k]
		}
		return sum / float64(kHi-kLo+1)
	}
	low := bandPower(50, 200)
	high := bandPower(6000, 10000)
	if low < 5*high {
		t.Errorf("pink noise tilt wrong: low %g vs high %g", low, high)
	}
}

func TestPinkNoiseEmpty(t *testing.T) {
	if PinkNoise(44100, 0, 0.5, 1).Len() != 0 {
		t.Error("zero duration should be empty")
	}
}

func TestCrowdNoiseBreathes(t *testing.T) {
	b := CrowdNoise(44100, 2, 0.1, 3)
	// Per-100ms RMS should vary (amplitude modulation).
	var levels []float64
	for i := 0; i < 19; i++ {
		slice := Buffer{SampleRate: b.SampleRate, Samples: b.Samples[i*4410 : (i+1)*4410]}
		levels = append(levels, slice.RMS())
	}
	minL, maxL := levels[0], levels[0]
	for _, l := range levels {
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	if maxL/minL < 1.02 {
		t.Errorf("crowd noise too static: min %g max %g", minL, maxL)
	}
}
