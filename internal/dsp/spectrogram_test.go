package dsp

import (
	"math"
	"testing"
)

func TestSTFTFrameCount(t *testing.T) {
	const sampleRate = 44100.0
	x := make([]float64, 44100) // 1 s
	sg := STFT(x, sampleRate, 2048, 512, Hann)
	if sg == nil {
		t.Fatal("nil spectrogram")
	}
	wantFrames := (len(x) + 511) / 512
	if sg.NumFrames() != wantFrames {
		t.Errorf("frames = %d, want %d", sg.NumFrames(), wantFrames)
	}
	if len(sg.Power[0]) != 2048/2+1 {
		t.Errorf("spectrum width = %d", len(sg.Power[0]))
	}
}

func TestSTFTEmptyInput(t *testing.T) {
	if STFT(nil, 44100, 1024, 256, Hann) != nil {
		t.Error("empty input should give nil")
	}
	if STFT([]float64{1}, 44100, 0, 256, Hann) != nil {
		t.Error("bad fftSize should give nil")
	}
}

func TestSTFTTracksChirpSteps(t *testing.T) {
	// Signal: 0.5 s at 500 Hz then 0.5 s at 1500 Hz. Dominant
	// frequency per frame must follow.
	const sampleRate = 44100.0
	half := int(0.5 * sampleRate)
	x := append(sine(500, sampleRate, half), sine(1500, sampleRate, half)...)
	sg := STFT(x, sampleRate, 4096, 2048, Hann)
	dominant := func(i int) float64 {
		return TopPeaks(sg.Power[i], sg.FFTSize, sampleRate, 0, 0, 1)[0].Frequency
	}
	early := dominant(2)
	late := dominant(sg.NumFrames() - 3)
	if math.Abs(early-500) > 30 {
		t.Errorf("early dominant = %g, want ~500", early)
	}
	if math.Abs(late-1500) > 30 {
		t.Errorf("late dominant = %g, want ~1500", late)
	}
}

func TestSpectrogramMelProjection(t *testing.T) {
	const sampleRate = 44100.0
	sg := STFT(sine(700, sampleRate, 44100), sampleRate, 2048, 1024, Hann)
	bank := NewMelFilterBank(32, sg.FFTSize, sampleRate, 50, 8000)
	mel := sg.Mel(bank)
	if len(mel) != sg.NumFrames() {
		t.Fatalf("mel rows = %d, want %d", len(mel), sg.NumFrames())
	}
	if len(mel[0]) != 32 {
		t.Fatalf("mel cols = %d, want 32", len(mel[0]))
	}
}

func TestDBConversions(t *testing.T) {
	if db := PowerDB(1); db != 0 {
		t.Errorf("PowerDB(1) = %g", db)
	}
	if db := PowerDB(0); db != -120 {
		t.Errorf("PowerDB(0) = %g, want floor", db)
	}
	if db := AmplitudeDB(10); math.Abs(db-20) > 1e-12 {
		t.Errorf("AmplitudeDB(10) = %g, want 20", db)
	}
	if db := AmplitudeDB(-1); db != -120 {
		t.Errorf("AmplitudeDB(-1) = %g, want floor", db)
	}
}
