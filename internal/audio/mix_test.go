package audio

import (
	"fmt"
	"testing"
)

// The direct-mix APIs exist so the acoustic capture path can reach
// zero steady-state allocations; their contract is bit-identity with
// the allocate-then-MixAt path they replace. These tests pin exactly
// that, sample for sample, across awkward offsets (negative, past the
// end, sub-sample) and tone lengths (shorter than the envelope,
// zero-length).

func TestMixEnvelopeAtMatchesRenderMixAt(t *testing.T) {
	const sr = 44100.0
	tones := []Tone{
		{Frequency: 440, Duration: 0.065, Amplitude: 0.3},
		{Frequency: 1234.5, Duration: 0.031, Amplitude: 0.8, Phase: 1.1},
		{Frequency: 7900, Duration: 0.004, Amplitude: 0.05}, // shorter than the envelope
		{Frequency: 200, Duration: 0, Amplitude: 1},         // renders nothing
	}
	offsets := []float64{0, 0.01, 0.0123456, -0.02, 0.19, -0.1, 0.21}
	for _, tone := range tones {
		for _, off := range offsets {
			want := NewBuffer(sr, 0.2)
			want.MixAt(tone.RenderEnvelope(sr, DefaultEnvelope), off, 1)
			got := NewBuffer(sr, 0.2)
			tone.MixEnvelopeAt(got, off, DefaultEnvelope)
			for i := range want.Samples {
				if want.Samples[i] != got.Samples[i] {
					t.Fatalf("tone %+v offset %g: sample %d = %x, want %x",
						tone, off, i, got.Samples[i], want.Samples[i])
				}
			}
		}
	}
}

func TestMixEnvelopeAtAccumulates(t *testing.T) {
	const sr = 8000.0
	tone := Tone{Frequency: 500, Duration: 0.05, Amplitude: 0.4}
	want := NewBuffer(sr, 0.1)
	want.MixAt(tone.Render(sr), 0.01, 1)
	want.MixAt(tone.Render(sr), 0.03, 1)
	got := NewBuffer(sr, 0.1)
	tone.MixEnvelopeAt(got, 0.01, DefaultEnvelope)
	tone.MixEnvelopeAt(got, 0.03, DefaultEnvelope)
	for i := range want.Samples {
		if want.Samples[i] != got.Samples[i] {
			t.Fatalf("sample %d = %x, want %x", i, got.Samples[i], want.Samples[i])
		}
	}
}

// BenchmarkMixEnvelopeAt mixes a whole 65 ms tone into a buffer, then,
// through each synthesis kernel the host can run, with the tone's table
// built by the call ("fresh") or interned ("table"), the middle of a 1 s
// tone into spans of a 10 ms hop (441 samples) and a 50 ms window (2205
// samples), as a capture does, and the 441 samples that hold its attack
// ramp ("ramp-441").
func BenchmarkMixEnvelopeAt(b *testing.B) {
	const sr = 44100.0
	b.Run("tone-65ms", func(b *testing.B) {
		tone := Tone{Frequency: 440, Duration: 0.065, Amplitude: 0.3}
		out := NewBuffer(sr, 0.1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tone.MixEnvelopeAt(out, 0.01, DefaultEnvelope)
		}
	})
	kernels := []struct {
		name string
		wide bool
	}{{"go", false}}
	if useAVX512 {
		kernels = append(kernels, struct {
			name string
			wide bool
		}{"avx512", true})
	}
	tone := Tone{Frequency: 1234.5, Duration: 1, Amplitude: 0.3, Phase: 1.1}
	n := int(tone.Duration * sr)
	edge := envelopeEdge(DefaultEnvelope, sr, n)
	interned := NewToneTable(tone.Frequency, sr)
	spans := []struct {
		name     string
		lo, span int
	}{
		{"441", n/2 + 7, 441}, // mid-superblock, off the block grid
		{"2205", n/2 + 7, 2205},
		{"ramp-441", 0, 441},
	}
	for _, k := range kernels {
		for _, table := range []bool{false, true} {
			for _, sp := range spans {
				name := fmt.Sprintf("%s-fresh-%s", k.name, sp.name)
				if table {
					name = fmt.Sprintf("%s-table-%s", k.name, sp.name)
				}
				b.Run(name, func(b *testing.B) {
					out := make([]float64, sp.span)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						tab := &interned
						if !table {
							fresh := NewToneTable(tone.Frequency, sr)
							tab = &fresh
						}
						tone.mixSamples(out, tab, sp.lo, sp.lo+sp.span, n, edge, k.wide)
					}
				})
			}
		}
	}
}
