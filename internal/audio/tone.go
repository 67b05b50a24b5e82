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
// length in seconds. Samples come from the two-level anchored kernel
// described at mixSamples (one exact anchor per 1024 samples, rotated
// to every 32-sample block): within 5·10⁻¹⁰·Amplitude of
// Amplitude·sin(2πf·i/sampleRate + Phase), not bit-identical to it.
func (t Tone) RenderEnvelope(sampleRate, envelope float64) *Buffer {
	b := NewBuffer(sampleRate, t.Duration)
	n := len(b.Samples)
	tab := NewToneTable(t.Frequency, sampleRate)
	t.mixSamples(b.Samples, &tab, 0, n, n, envelopeEdge(envelope, sampleRate, n), useAVX512)
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
	return t.MixTableAt(b, offset, envelope, nil)
}

// MixTableAt is MixEnvelopeAt with the tone's table supplied by the
// caller, who builds it once per frequency with NewToneTable and
// reuses it for every mix of that frequency. The samples are
// bit-identical to MixEnvelopeAt's. A nil tab, or one built for
// another frequency or sample rate, is not used: the call builds the
// right table on its own stack.
func (t Tone) MixTableAt(b *Buffer, offset, envelope float64, tab *ToneTable) *Buffer {
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
	var own ToneTable
	if tab == nil || math.Float64bits(tab.freq) != math.Float64bits(t.Frequency) || tab.rate != sr {
		own = NewToneTable(t.Frequency, sr)
		tab = &own
	}
	t.mixSamples(b.Samples[start+lo:start+hi], tab, lo, hi, n, envelopeEdge(envelope, sr, n), useAVX512)
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

// toneBlock is the block length of mixSamples, in tone samples, and
// toneSuper the spacing of its exact anchors (a multiple of toneBlock).
const (
	toneBlock = 32
	toneSuper = 1024
)

// ToneTable is the part of tone synthesis that depends only on the
// frequency and the sample rate: the phase step ω per sample, the
// angle-sum table sin kω and cos kω for k < toneBlock, and the block
// rotation by toneBlock·ω. Building one costs two math.Sincos calls
// and 31 serial rotations, which a caller mixing one frequency over
// and over (a room replaying each tone into every microphone's every
// hop) pays once instead of per call. It is 552 bytes.
type ToneTable struct {
	freq, rate float64
	w          float64
	sr, cr     float64 // sin and cos of toneBlock·ω
	sinK, cosK [toneBlock]float64
}

// NewToneTable builds the table of tones of frequency freq at the
// given sample rate.
func NewToneTable(freq, sampleRate float64) ToneTable {
	tab := ToneTable{freq: freq, rate: sampleRate, w: 2 * math.Pi * freq / sampleRate}
	s1, c1 := math.Sincos(tab.w)
	tab.sinK[0], tab.cosK[0] = 0, 1
	for k := 1; k < toneBlock; k++ {
		tab.sinK[k] = float64(tab.sinK[k-1]*c1) + float64(tab.cosK[k-1]*s1)
		tab.cosK[k] = float64(tab.cosK[k-1]*c1) - float64(tab.sinK[k-1]*s1)
	}
	tab.sr, tab.cr = math.Sincos(toneBlock * tab.w)
	return tab
}

// mixSamples adds samples [lo, hi) of an n-sample tone with edge-sample
// linear attack/release ramps into dst, dst[0] receiving sample lo. tab
// is the tone's table.
//
// Sample a+k, with a a multiple of toneBlock and 0 <= k < toneBlock, is
// the angle-sum expansion Amplitude·(sin θa·cos kω + cos θa·sin kω) of
// Amplitude·sin(ω(a+k) + Phase), the kω terms from tab. The block
// anchors θa form a two-level grid: every toneSuper samples one exact
// math.Sincos anchor θA, and inside a superblock θa is θA rotated
// (a−A)/toneBlock times by toneBlock·ω, always starting from θA, never
// from the call's first block. Anchors thus sit on the tone's own
// sample grid, so every sample is a pure function of (tone, rate, edge,
// index) however the range is cut. The deviation from a per-sample
// math.Sin is argument rounding, at most 5·10⁻¹⁰·Amplitude for
// 20 Hz–20 kHz tones up to 30 s at 44.1 kHz; the rotations and the
// table add ~10⁻¹⁴.
//
// Each superblock's span goes to one kernel call: mixSpanAVX512 with
// wide set (useAVX512, or a test), mixSpan otherwise. Both run the
// same operations in the same order, the AVX-512 kernel eight samples
// at a time, so the samples are bit-identical either way. Every product
// is written float64(a*b): an explicit conversion rounds the product,
// so no architecture fuses it into the following sum (arm64 otherwise
// does), and the kernels agree on every GOARCH.
func (t Tone) mixSamples(dst []float64, tab *ToneTable, lo, hi, n, edge int, wide bool) {
	w := tab.w
	a := lo - lo%toneBlock
	// Enter at the superblock's exact anchor and rotate up to block a.
	sup := a - a%toneSuper
	sa, ca := math.Sincos(float64(w*float64(sup)) + t.Phase)
	for ; sup < a; sup += toneBlock {
		sa, ca = float64(sa*tab.cr)+float64(ca*tab.sr), float64(ca*tab.cr)-float64(sa*tab.sr)
	}
	for {
		next := a - a%toneSuper + toneSuper
		first, end := max(lo, a), min(hi, next)
		out := dst[first-lo : end-lo]
		if wide {
			mixSpanAVX512(out, tab, t.Amplitude, sa, ca, a, first, n, edge)
		} else {
			t.mixSpan(out, tab, sa, ca, a, first, n, edge)
		}
		if next >= hi {
			return
		}
		a = next
		sa, ca = math.Sincos(float64(w*float64(a)) + t.Phase)
	}
}

// mixSpan adds samples [first, first+len(out)) of an n-sample tone into
// out, out[0] receiving sample first. The samples lie in the blocks
// from a, a multiple of toneBlock at most first, whose anchor is
// (sa, ca), up to the end of a's superblock. Each block scales the
// anchor by Amplitude, then rotates it by toneBlock·ω; only blocks that
// touch a ramp pay for the envelope, and whole blocks clear of both
// ramps run unrolled by four.
func (t Tone) mixSpan(out []float64, tab *ToneTable, sa, ca float64, a, first, n, edge int) {
	cosK, sinK := &tab.cosK, &tab.sinK
	end := first + len(out)
	fe := float64(edge)
	for ; a < end; a += toneBlock {
		s, c := t.Amplitude*sa, t.Amplitude*ca
		sa, ca = float64(sa*tab.cr)+float64(ca*tab.sr), float64(ca*tab.cr)-float64(sa*tab.sr)
		k0, k1 := max(first-a, 0), min(end-a, toneBlock)
		o := out[a+k0-first : a+k1-first]
		if edge > 0 && (a < edge || a+toneBlock > n-edge) {
			for k := k0; k < k1; k++ {
				v := float64(s*cosK[k]) + float64(c*sinK[k])
				switch i := a + k; {
				case i < edge:
					v *= float64(i) / fe
				case i >= n-edge:
					v *= float64(n-1-i) / fe
				}
				o[k-k0] += v
			}
			continue
		}
		if k1-k0 == toneBlock {
			// A whole block, the common case, runs unrolled by four;
			// each sample is the same expression as in the loop below.
			o := (*[toneBlock]float64)(o)
			for k := 0; k < toneBlock; k += 4 {
				o[k] += float64(s*cosK[k]) + float64(c*sinK[k])
				o[k+1] += float64(s*cosK[k+1]) + float64(c*sinK[k+1])
				o[k+2] += float64(s*cosK[k+2]) + float64(c*sinK[k+2])
				o[k+3] += float64(s*cosK[k+3]) + float64(c*sinK[k+3])
			}
			continue
		}
		// Equal lengths let the compiler drop the loop's bounds checks.
		cs, sn := cosK[k0:k1], sinK[k0:k1]
		sn = sn[:len(cs)]
		o = o[:len(cs)]
		for k := range cs {
			o[k] += float64(s*cs[k]) + float64(c*sn[k])
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
