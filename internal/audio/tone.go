package audio

import "math"

// Tone describes a single sinusoidal emission — the unit of the MDN
// Music Protocol. A Music Protocol message carries exactly these three
// parameters (frequency, duration, intensity).
type Tone struct {
	// Frequency in Hz.
	Frequency float64
	// Duration in seconds. The paper's shortest usable tone was
	// approximately 30 ms.
	Duration float64
	// Amplitude is the linear peak amplitude at the speaker (1.0 =
	// speaker full scale).
	Amplitude float64
	// Phase is the initial phase in radians; useful to decorrelate
	// concurrent emitters.
	Phase float64
}

// DefaultEnvelope is the attack/release ramp applied to synthesized
// tones, in seconds. 5 ms edges remove the spectral splatter of a
// hard-keyed sinusoid without materially shortening a 30 ms tone.
const DefaultEnvelope = 0.005

// Render synthesizes the tone at the given sample rate with a linear
// attack/release envelope of DefaultEnvelope seconds on each edge
// (shortened for very brief tones so the envelope never exceeds half
// the duration).
func (t Tone) Render(sampleRate float64) *Buffer {
	return t.RenderEnvelope(sampleRate, DefaultEnvelope)
}

// RenderEnvelope synthesizes the tone with an explicit attack/release
// length in seconds. Samples come from the block-anchored kernel
// described at mixSamples: within 5·10⁻¹⁰·Amplitude of
// Amplitude·sin(2πf·i/sampleRate + Phase), not bit-identical to it.
func (t Tone) RenderEnvelope(sampleRate, envelope float64) *Buffer {
	b := NewBuffer(sampleRate, t.Duration)
	n := len(b.Samples)
	t.mixSamples(b.Samples, sampleRate, 0, n, n, envelopeEdge(envelope, sampleRate, n))
	return b
}

// MixEnvelopeAt synthesizes the tone directly into b starting at the
// given offset in seconds, with the same attack/release envelope as
// RenderEnvelope, and returns b. The samples added are bit-identical
// to b.MixAt(t.RenderEnvelope(b.SampleRate, envelope), offset, 1):
// both run the same kernel, whose sample i depends only on the tone,
// the rate, the envelope and i — never on offset or on how much of
// the tone lands inside b. Mixing a tone in consecutive chunks thus
// adds exactly what one call over their union adds, which is what
// keeps streaming captures equal to batch ones. Nothing is allocated,
// so the acoustic capture hot path stays at zero steady-state
// allocations.
func (t Tone) MixEnvelopeAt(b *Buffer, offset, envelope float64) *Buffer {
	sr := b.SampleRate
	n := int(math.Round(t.Duration * sr))
	if n <= 0 {
		return b
	}
	start := int(math.Round(offset * sr))
	// Clamp the tone-sample range to the part that lands inside b.
	lo, hi := 0, n
	if start < 0 {
		lo = -start
	}
	if start+hi > len(b.Samples) {
		hi = len(b.Samples) - start
	}
	if lo >= hi {
		return b
	}
	t.mixSamples(b.Samples[start+lo:start+hi], sr, lo, hi, n, envelopeEdge(envelope, sr, n))
	return b
}

// envelopeEdge is the attack/release length in samples of an n-sample
// tone: envelope seconds, shortened to at most half the tone.
func envelopeEdge(envelope, sampleRate float64, n int) int {
	edge := int(envelope * sampleRate)
	if edge > n/2 {
		edge = n / 2
	}
	return edge
}

// toneBlock is the anchor spacing of mixSamples, in tone samples.
const toneBlock = 32

// mixSamples adds samples [lo, hi) of an n-sample tone with edge-sample
// linear attack/release ramps into dst, dst[0] receiving sample lo.
//
// Sample a+k, with a a multiple of toneBlock and 0 <= k < toneBlock, is
// the angle-sum expansion Amplitude·(sin θa·cos kω + cos θa·sin kω) of
// Amplitude·sin(ω(a+k) + Phase): one exact math.Sincos anchor θa per
// block, the kω terms from a per-call table built by rotating by ω
// (rounding ~10⁻¹⁴, far below the anchors'). Anchors sit on the tone's
// own sample grid, so every sample is a pure function of (tone, rate,
// edge, index) however the range is cut. The deviation from a
// per-sample math.Sin is argument rounding, at most 5·10⁻¹⁰·Amplitude
// for 20 Hz–20 kHz tones up to 30 s at 44.1 kHz. Only blocks that touch
// a ramp pay for the envelope; the rest run a branch-free loop.
func (t Tone) mixSamples(dst []float64, sampleRate float64, lo, hi, n, edge int) {
	w := 2 * math.Pi * t.Frequency / sampleRate
	var sinK, cosK [toneBlock]float64
	s1, c1 := math.Sincos(w)
	sinK[0], cosK[0] = 0, 1
	for k := 1; k < toneBlock; k++ {
		sinK[k] = sinK[k-1]*c1 + cosK[k-1]*s1
		cosK[k] = cosK[k-1]*c1 - sinK[k-1]*s1
	}
	fe := float64(edge)
	for a := lo - lo%toneBlock; a < hi; a += toneBlock {
		s, c := math.Sincos(w*float64(a) + t.Phase)
		s, c = t.Amplitude*s, t.Amplitude*c
		k0, k1 := max(lo-a, 0), min(hi-a, toneBlock)
		out := dst[a+k0-lo : a+k1-lo]
		if edge > 0 && (a < edge || a+toneBlock > n-edge) {
			for k := k0; k < k1; k++ {
				v := s*cosK[k] + c*sinK[k]
				switch i := a + k; {
				case i < edge:
					v *= float64(i) / fe
				case i >= n-edge:
					v *= float64(n-1-i) / fe
				}
				out[k-k0] += v
			}
			continue
		}
		// Equal lengths let the compiler drop the loop's bounds checks.
		cs, sn := cosK[k0:k1], sinK[k0:k1]
		sn = sn[:len(cs)]
		out = out[:len(cs)]
		for k := range cs {
			out[k] += s*cs[k] + c*sn[k]
		}
	}
}

// Chord renders several simultaneous tones of equal duration into one
// buffer. Tones shorter than the longest are padded with silence.
func Chord(sampleRate float64, tones ...Tone) *Buffer {
	maxDur := 0.0
	for _, t := range tones {
		if t.Duration > maxDur {
			maxDur = t.Duration
		}
	}
	out := NewBuffer(sampleRate, maxDur)
	for _, t := range tones {
		out.MixAt(t.Render(sampleRate), 0, 1)
	}
	return out
}

// Sequence renders tones back to back with the given gap in seconds
// between them — a "melody" in the paper's terms.
func Sequence(sampleRate, gap float64, tones ...Tone) *Buffer {
	total := 0.0
	for i, t := range tones {
		total += t.Duration
		if i < len(tones)-1 {
			total += gap
		}
	}
	out := NewBuffer(sampleRate, total)
	at := 0.0
	for _, t := range tones {
		out.MixAt(t.Render(sampleRate), at, 1)
		at += t.Duration + gap
	}
	return out
}
