package audio

import (
	"math"
	"testing"

	"mdn/internal/dsp"
)

func TestFanBladePass(t *testing.T) {
	f := DefaultFan(0.3, 1)
	if got := f.BladePassHz(); got != 1050 {
		t.Errorf("blade pass = %g, want 1050 (9000 RPM x 7 blades)", got)
	}
	zero := Fan{RPM: 6000}
	if got := zero.BladePassHz(); got != 700 {
		t.Errorf("default blades blade pass = %g, want 700", got)
	}
}

func TestFanHarmonicFrequencies(t *testing.T) {
	f := DefaultFan(0.3, 1)
	h := f.HarmonicFrequencies()
	if len(h) != fanHarmonics {
		t.Fatalf("harmonics = %d, want %d", len(h), fanHarmonics)
	}
	for i, hz := range h {
		want := 1050 * float64(i+1)
		if math.Abs(hz-want) > 1e-9 {
			t.Errorf("harmonic %d = %g, want %g", i, hz, want)
		}
	}
}

func TestFanSpectrumShowsHarmonics(t *testing.T) {
	const sr = 44100.0
	f := DefaultFan(0.3, 2)
	b := f.Render(sr, 2)
	if b.RMS() == 0 {
		t.Fatal("fan render silent")
	}
	// Fundamental should dominate a nearby off-harmonic frequency.
	// Use a window short enough that RPM jitter stays coherent.
	seg := b.Samples[:8192]
	fund := dsp.Goertzel(seg, 1050, sr)
	off := dsp.Goertzel(seg, 1350, sr)
	if fund < 3*off {
		t.Errorf("fundamental %g not above off-harmonic %g", fund, off)
	}
}

func TestDatacenterAmbienceAvoidsForegroundRPM(t *testing.T) {
	const sr = 44100.0
	amb := DatacenterAmbience(sr, 1, 0.3, 9)
	if math.Abs(amb.RMS()-0.3) > 0.03 {
		t.Errorf("ambience rms = %g, want ~0.3", amb.RMS())
	}
	fg := DefaultFan(0.3, 1).Render(sr, 1)
	// The foreground fan's fundamental should be more prominent in
	// the fan signal than in the ambience at equal RMS.
	fgMag := dsp.Goertzel(fg.Samples[:8192], 1050, sr)
	ambMag := dsp.Goertzel(amb.Samples[:8192], 1050, sr)
	if fgMag < 2*ambMag {
		t.Errorf("ambience crowds out foreground fundamental: fan %g vs ambience %g", fgMag, ambMag)
	}
}

func TestOfficeAmbienceQuieterProfile(t *testing.T) {
	office := OfficeAmbience(44100, 1, 0.05, 4)
	if math.Abs(office.RMS()-0.05) > 0.02 {
		t.Errorf("office rms = %g, want ~0.05", office.RMS())
	}
}

func TestFanZeroDuration(t *testing.T) {
	if DefaultFan(0.3, 1).Render(44100, 0).Len() != 0 {
		t.Error("zero duration should be empty")
	}
	if DatacenterAmbience(44100, 0, 0.3, 1).Len() != 0 {
		t.Error("zero duration ambience should be empty")
	}
}
