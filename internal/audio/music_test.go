package audio

import (
	"testing"

	"mdn/internal/dsp"
)

func TestSongRenderLevelAndDeterminism(t *testing.T) {
	s := PopSong(0.5, 11)
	a := s.Render(44100, 2)
	b := s.Render(44100, 2)
	if a.Len() != b.Len() {
		t.Fatal("length mismatch")
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("song not deterministic")
		}
	}
	if p := a.Peak(); p < 0.45 || p > 0.5+1e-9 {
		t.Errorf("peak = %g, want ~0.5", p)
	}
}

func TestSongOccupiesMDNBand(t *testing.T) {
	// The interference must be in-band (200 Hz – 4 kHz), otherwise
	// the noisy telemetry figures wouldn't stress the detector.
	const sr = 44100.0
	b := PopSong(0.8, 5).Render(sr, 3)
	spec := dsp.PowerSpectrum(dsp.FFTReal(b.Samples[:131072]))
	bandEnergy := func(lo, hi float64) float64 {
		sum := 0.0
		for k := dsp.FrequencyBin(lo, 131072, sr); k <= dsp.FrequencyBin(hi, 131072, sr); k++ {
			sum += spec[k]
		}
		return sum
	}
	inBand := bandEnergy(200, 4000)
	above := bandEnergy(8000, 16000)
	if inBand < 10*above {
		t.Errorf("song energy not concentrated in MDN band: %g vs %g", inBand, above)
	}
}

func TestSongNonStationary(t *testing.T) {
	// Per-beat spectra should change over time (it's music, not a
	// steady hum): dominant frequency must take multiple values.
	const sr = 44100.0
	b := PopSong(0.8, 5).Render(sr, 4)
	sg := dsp.STFT(b.Samples, sr, 8192, 8192, dsp.Hann)
	seen := map[int]bool{}
	for _, frame := range sg.Power {
		best := dsp.FrequencyBin(80, sg.FFTSize, sr) // strongest bin at or above 80 Hz
		for k := best; k < len(frame); k++ {
			if frame[k] > frame[best] {
				best = k
			}
		}
		seen[int(dsp.BinFrequency(best, sg.FFTSize, sr)/20)] = true
	}
	if len(seen) < 3 {
		t.Errorf("song too stationary: %d distinct dominant bins", len(seen))
	}
}

func TestSongDefaults(t *testing.T) {
	b := Song{}.Render(44100, 1) // zero BPM and level use defaults
	if b.Len() == 0 || b.Peak() == 0 {
		t.Error("defaulted song should produce audio")
	}
}
