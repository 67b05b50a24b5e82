package audio

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewBufferSizing(t *testing.T) {
	b := NewBuffer(44100, 1.5)
	if b.Len() != 66150 {
		t.Errorf("len = %d, want 66150", b.Len())
	}
	if math.Abs(b.Duration()-1.5) > 1e-9 {
		t.Errorf("duration = %g", b.Duration())
	}
	if NewBuffer(44100, -1).Len() != 0 {
		t.Error("negative duration should give empty buffer")
	}
}

func TestNewBufferPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuffer(0, 1)
}

func TestMixAtOffsets(t *testing.T) {
	dst := NewBuffer(1000, 1)
	src := NewBuffer(1000, 0.1)
	for i := range src.Samples {
		src.Samples[i] = 1
	}
	dst.MixAt(src, 0.5, 2)
	if dst.Samples[499] != 0 || dst.Samples[500] != 2 || dst.Samples[599] != 2 {
		t.Errorf("mix misplaced: %g %g %g", dst.Samples[499], dst.Samples[500], dst.Samples[599])
	}
	// Off-the-end samples are dropped, not panicking.
	dst.MixAt(src, 0.95, 1)
	if dst.Samples[999] != 1 {
		t.Errorf("tail sample = %g, want 1", dst.Samples[999])
	}
	// Negative offsets drop the head.
	dst2 := NewBuffer(1000, 1)
	dst2.MixAt(src, -0.05, 1)
	if dst2.Samples[0] != 1 || dst2.Samples[49] != 1 || dst2.Samples[50] != 0 {
		t.Errorf("negative offset mix wrong: %g %g %g", dst2.Samples[0], dst2.Samples[49], dst2.Samples[50])
	}
}

func TestMixAtPanicsOnRateMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuffer(44100, 1).MixAt(NewBuffer(48000, 1), 0, 1)
}

func TestGainPeakRMS(t *testing.T) {
	b := &Buffer{SampleRate: 100, Samples: []float64{0.5, -1, 0.25}}
	if p := b.Peak(); p != 1 {
		t.Errorf("peak = %g", p)
	}
	b.Gain(2)
	if b.Samples[1] != -2 {
		t.Errorf("gain failed: %v", b.Samples)
	}
	want := math.Sqrt((1 + 4 + 0.25) / 3)
	if r := b.RMS(); math.Abs(r-want) > 1e-12 {
		t.Errorf("rms = %g, want %g", r, want)
	}
	empty := &Buffer{SampleRate: 100}
	if empty.RMS() != 0 || empty.Peak() != 0 {
		t.Error("empty buffer should have zero rms/peak")
	}
}

func TestNormalizeProperty(t *testing.T) {
	f := func(vals []float64, target float64) bool {
		target = 0.1 + math.Mod(math.Abs(target), 2)
		b := &Buffer{SampleRate: 100}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			b.Samples = append(b.Samples, math.Mod(v, 1e6))
		}
		before := b.Peak()
		b.Normalize(target)
		if before == 0 {
			return b.Peak() == 0
		}
		return math.Abs(b.Peak()-target) < 1e-9*(1+target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
