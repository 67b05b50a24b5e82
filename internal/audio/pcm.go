// Package audio provides PCM signal synthesis for Music-Defined
// Networking: tones with click-free envelopes, noise generators, a
// deterministic pop-song interference model (the paper's "Cheap
// Thrills" background noise), server-fan and room-ambience models, and
// RIFF WAV encoding/decoding.
//
// Signals are float64 sample slices wrapped in Buffer. Amplitude 1.0
// is full scale; sound levels follow the paper's dB convention where
// an amplitude a corresponds to 20*log10(a/refAmplitude) dB SPL with
// the reference calibrated in package acoustic.
package audio

import (
	"fmt"
	"math"
)

// DefaultSampleRate is the sample rate used throughout the MDN
// testbed, matching commodity microphone hardware.
const DefaultSampleRate = 44100.0

// Buffer is a mono PCM signal.
type Buffer struct {
	// SampleRate in Hz.
	SampleRate float64
	// Samples holds the waveform; amplitude 1.0 is full scale.
	Samples []float64
}

// NewBuffer allocates a silent buffer holding d seconds of audio.
func NewBuffer(sampleRate, d float64) *Buffer {
	if sampleRate <= 0 {
		panic("audio: sample rate must be positive")
	}
	n := int(math.Round(d * sampleRate))
	if n < 0 {
		n = 0
	}
	return &Buffer{SampleRate: sampleRate, Samples: make([]float64, n)}
}

// Duration returns the buffer length in seconds.
func (b *Buffer) Duration() float64 {
	return float64(len(b.Samples)) / b.SampleRate
}

// Len returns the number of samples.
func (b *Buffer) Len() int { return len(b.Samples) }

// MixAt adds src into b starting at the given offset in seconds,
// scaled by gain. Samples of src falling outside b are dropped. It
// returns b for chaining. MixAt panics when sample rates differ — the
// MDN pipeline runs at a single rate and a mismatch is a bug.
func (b *Buffer) MixAt(src *Buffer, offset, gain float64) *Buffer {
	if src.SampleRate != b.SampleRate {
		panic(fmt.Sprintf("audio: MixAt rate mismatch %g vs %g", src.SampleRate, b.SampleRate))
	}
	start := int(math.Round(offset * b.SampleRate))
	for i, v := range src.Samples {
		j := start + i
		if j < 0 || j >= len(b.Samples) {
			continue
		}
		b.Samples[j] += float64(v * gain)
	}
	return b
}

// Gain scales all samples in place and returns b.
func (b *Buffer) Gain(g float64) *Buffer {
	for i := range b.Samples {
		b.Samples[i] *= g
	}
	return b
}

// Peak returns the maximum absolute sample value.
func (b *Buffer) Peak() float64 {
	p := 0.0
	for _, v := range b.Samples {
		if a := math.Abs(v); a > p {
			p = a
		}
	}
	return p
}

// RMS returns the root-mean-square amplitude of the buffer.
func (b *Buffer) RMS() float64 {
	if len(b.Samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range b.Samples {
		sum += float64(v * v)
	}
	return math.Sqrt(sum / float64(len(b.Samples)))
}

// Normalize rescales the buffer so its peak equals target (no-op for
// silent buffers) and returns b.
func (b *Buffer) Normalize(target float64) *Buffer {
	p := b.Peak()
	if p == 0 {
		return b
	}
	return b.Gain(target / p)
}
