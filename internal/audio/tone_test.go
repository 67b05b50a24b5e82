package audio

import (
	"math"
	"testing"

	"mdn/internal/dsp"
)

func TestToneRenderBasics(t *testing.T) {
	tone := Tone{Frequency: 440, Duration: 0.1, Amplitude: 0.8}
	b := tone.Render(44100)
	if math.Abs(b.Duration()-0.1) > 1e-3 {
		t.Errorf("duration = %g", b.Duration())
	}
	if p := b.Peak(); p > 0.8+1e-9 || p < 0.7 {
		t.Errorf("peak = %g, want ~0.8", p)
	}
	// Spectral check: dominant frequency is 440 Hz.
	g440 := dsp.Goertzel(b.Samples, 440, 44100)
	g600 := dsp.Goertzel(b.Samples, 600, 44100)
	if g440 < 10*g600 {
		t.Errorf("tone energy not at 440 Hz: %g vs %g", g440, g600)
	}
}

func TestToneEnvelopeRemovesClicks(t *testing.T) {
	tone := Tone{Frequency: 1000, Duration: 0.05, Amplitude: 1}
	b := tone.Render(44100)
	if math.Abs(b.Samples[0]) > 1e-9 {
		t.Errorf("first sample = %g, want 0 (attack ramp)", b.Samples[0])
	}
	last := b.Samples[len(b.Samples)-1]
	if math.Abs(last) > 1e-9 {
		t.Errorf("last sample = %g, want 0 (release ramp)", last)
	}
}

func TestToneVeryShortEnvelopeClamped(t *testing.T) {
	// 2 ms tone: envelope must shrink so the tone still has energy.
	tone := Tone{Frequency: 2000, Duration: 0.002, Amplitude: 1}
	b := tone.Render(44100)
	if b.RMS() == 0 {
		t.Error("short tone fully suppressed by envelope")
	}
}

func TestToneZeroDuration(t *testing.T) {
	b := Tone{Frequency: 440, Duration: 0, Amplitude: 1}.Render(44100)
	if b.Len() != 0 {
		t.Errorf("len = %d, want 0", b.Len())
	}
}

func TestChordContainsAllTones(t *testing.T) {
	const sr = 44100.0
	b := Chord(sr,
		Tone{Frequency: 500, Duration: 0.2, Amplitude: 0.5},
		Tone{Frequency: 700, Duration: 0.1, Amplitude: 0.5},
	)
	if math.Abs(b.Duration()-0.2) > 1e-3 {
		t.Errorf("chord duration = %g, want longest tone", b.Duration())
	}
	for _, hz := range []float64{500, 700} {
		if dsp.Goertzel(b.Samples[:2205], hz, sr) < 50 {
			t.Errorf("chord missing %g Hz", hz)
		}
	}
}

func TestSequenceTiming(t *testing.T) {
	const sr = 44100.0
	b := Sequence(sr, 0.05,
		Tone{Frequency: 500, Duration: 0.1, Amplitude: 1},
		Tone{Frequency: 900, Duration: 0.1, Amplitude: 1},
	)
	if math.Abs(b.Duration()-0.25) > 1e-3 {
		t.Errorf("sequence duration = %g, want 0.25", b.Duration())
	}
	// First segment is 500 Hz, second is 900 Hz.
	first := b.Slice(0.02, 0.08)
	second := b.Slice(0.17, 0.23)
	if dsp.Goertzel(first.Samples, 500, sr) < 10*dsp.Goertzel(first.Samples, 900, sr) {
		t.Error("first segment should be 500 Hz")
	}
	if dsp.Goertzel(second.Samples, 900, sr) < 10*dsp.Goertzel(second.Samples, 500, sr) {
		t.Error("second segment should be 900 Hz")
	}
	// Gap is silent.
	gap := b.Slice(0.11, 0.14)
	if gap.RMS() > 1e-6 {
		t.Errorf("gap rms = %g, want silence", gap.RMS())
	}
}

func TestSequenceEmpty(t *testing.T) {
	if Sequence(44100, 0.1).Len() != 0 {
		t.Error("empty sequence should be empty")
	}
}

// TestToneKernelDeviationBound pins the block-anchored synthesis error:
// every sample stays within 1e-9·Amplitude of the per-sample
// Amplitude·sin(ω·i+φ) (times the same ramp where the envelope is on),
// across the audio band, several phases and 30 ms to 30 s tones.
func TestToneKernelDeviationBound(t *testing.T) {
	const sr = 44100.0
	durations := []float64{0.03, 1, 30}
	if testing.Short() {
		durations = durations[:2]
	}
	worst := 0.0
	for _, hz := range []float64{20, 440, 5000, 20000} {
		for _, phase := range []float64{0, 1.1, -2.5} {
			for _, d := range durations {
				for _, env := range []float64{0, DefaultEnvelope} {
					tone := Tone{Frequency: hz, Duration: d, Amplitude: 0.7, Phase: phase}
					got := tone.RenderEnvelope(sr, env).Samples
					n := len(got)
					edge := envelopeEdge(env, sr, n)
					w := 2 * math.Pi * hz / sr
					for i, v := range got {
						want := tone.Amplitude * math.Sin(w*float64(i)+phase)
						switch {
						case edge > 0 && i < edge:
							want *= float64(i) / float64(edge)
						case edge > 0 && i >= n-edge:
							want *= float64(n-1-i) / float64(edge)
						}
						dev := math.Abs(v-want) / tone.Amplitude
						if dev > 1e-9 {
							t.Fatalf("%+v envelope %g: sample %d = %.17g, want %.17g (deviation %.3g·A)",
								tone, env, i, v, want, dev)
						}
						worst = math.Max(worst, dev)
					}
				}
			}
		}
	}
	t.Logf("worst deviation %.3g·Amplitude", worst)
}

// TestToneKernelChunkInvariant pins the property streaming capture
// relies on: mixing a tone into consecutive chunks of a timeline, of
// any length and with the tone starting before, inside or after the
// first chunk, adds bit-identical samples to one call over the whole
// timeline.
func TestToneKernelChunkInvariant(t *testing.T) {
	const sr = 44100.0
	tones := []Tone{
		{Frequency: 440, Duration: 0.1, Amplitude: 0.3},
		{Frequency: 1234.5, Duration: 0.031, Amplitude: 0.8, Phase: 1.1},
		{Frequency: 19000, Duration: 0.25, Amplitude: 0.05, Phase: -2},
		{Frequency: 7900, Duration: 0.004, Amplitude: 0.5}, // shorter than the envelope
	}
	const span = 13230 // 300 ms of timeline
	for _, tone := range tones {
		for _, toneStart := range []int{0, 5, -1000, -4409, 2205} {
			want := &Buffer{SampleRate: sr, Samples: make([]float64, span)}
			tone.MixEnvelopeAt(want, float64(toneStart)/sr, DefaultEnvelope)
			for _, chunk := range []int{1, 31, 33, 441, 1000, 2205} {
				var got []float64
				for from := 0; from < span; from += chunk {
					c := &Buffer{SampleRate: sr, Samples: make([]float64, min(chunk, span-from))}
					tone.MixEnvelopeAt(c, float64(toneStart-from)/sr, DefaultEnvelope)
					got = append(got, c.Samples...)
				}
				for i := range want.Samples {
					if got[i] != want.Samples[i] {
						t.Fatalf("%+v start %d chunk %d: sample %d = %x, want %x",
							tone, toneStart, chunk, i, got[i], want.Samples[i])
					}
				}
			}
		}
	}
}
