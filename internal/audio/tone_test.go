package audio

import (
	"math"
	"math/rand"
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
// timeline. Chunks of toneSuper±1 samples, a chunk entering one block
// before a superblock boundary, and windows deep inside a 30 s tone
// check that an anchor never depends on where a call starts.
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
			want := mixCuts(tone, toneStart, span, nil)
			for _, chunk := range []int{1, 31, 33, 441, 1000, toneSuper - 1, toneSuper, toneSuper + 1, 2205} {
				var cuts []int
				for from := chunk; from < span; from += chunk {
					cuts = append(cuts, from)
				}
				sameSamples(t, mixCuts(tone, toneStart, span, cuts), want, "%+v start %d chunk %d", tone, toneStart, chunk)
			}
			// The second call enters one block before the first
			// superblock boundary the timeline holds.
			b := toneSuper
			for toneStart+b-toneBlock <= 0 {
				b += toneSuper
			}
			cut := []int{toneStart + b - toneBlock}
			sameSamples(t, mixCuts(tone, toneStart, span, cut), want, "%+v start %d cut %v", tone, toneStart, cut)
		}
	}

	// Windows of a 30 s, 20 kHz tone that start mid-superblock, one of
	// them running into the release ramp, equal the same samples of
	// the whole tone rendered in one call.
	long := Tone{Frequency: 20000, Duration: 30, Amplitude: 0.5, Phase: 0.7}
	whole := long.RenderEnvelope(sr, DefaultEnvelope).Samples
	for _, from := range []int{29*44100 + 517, len(whole) - 4410} {
		if from%toneSuper == 0 {
			t.Fatalf("window at %d starts on a superblock boundary", from)
		}
		for _, chunk := range []int{441, 1000, 4410} {
			var cuts []int
			for c := chunk; c < 4410; c += chunk {
				cuts = append(cuts, c)
			}
			got := mixCuts(long, -from, 4410, cuts)
			sameSamples(t, got, whole[from:from+4410], "30 s tone from %d chunk %d", from, chunk)
		}
	}
}

// TestToneKernelsBitIdentical holds every synthesis path to the Go
// kernel with a freshly built table, bit for bit, over 6,000 random
// tones (20 Hz–20 kHz, any amplitude and phase, up to five superblocks
// long, with no ramp, the default one or a random one) mixed at random
// offsets into buffers of random length and random contents: the
// AVX-512 kernel where the CPU has it, and MixTableAt with an interned
// table, one per frequency of a 64-tone plan, reused across trials. The
// cases must include attack and release ramps inside the mixed range,
// partial first and last blocks, and ranges that cross a superblock
// boundary.
func TestToneKernelsBitIdentical(t *testing.T) {
	if useAVX512 {
		t.Log("running the AVX-512 tone kernel and the interned-table path against the Go kernel")
	} else {
		t.Log("this CPU lacks AVX-512F: running the interned-table path against the Go kernel")
	}
	const (
		sr     = 44100.0
		trials = 6000
	)
	rng := rand.New(rand.NewSource(36))
	plan := make([]ToneTable, 64)
	for i := range plan {
		plan[i] = NewToneTable(20+rng.Float64()*19980, sr)
	}
	var attack, release, partialFirst, partialLast, crossing int
	for trial := 0; trial < trials; trial++ {
		tab := &plan[rng.Intn(len(plan))]
		tone := Tone{
			Frequency: tab.freq,
			Amplitude: rng.Float64(),
			Phase:     (2*rng.Float64() - 1) * math.Pi,
		}
		n := 1 + rng.Intn(5*toneSuper)
		tone.Duration = float64(n) / sr
		envelope := [...]float64{0, DefaultEnvelope, rng.Float64() * 0.05}[rng.Intn(3)]
		edge := envelopeEdge(envelope, sr, n)
		// The tone starts anywhere from wholly before the buffer to
		// its last sample, as MixEnvelopeAt's offset places it.
		bufLen := 1 + rng.Intn(6000)
		start := rng.Intn(n+bufLen-1) - n + 1
		lo, hi := max(0, -start), min(n, bufLen-start)

		base := make([]float64, bufLen)
		for i := range base {
			base[i] = rng.NormFloat64()
		}
		want := append([]float64(nil), base...)
		fresh := NewToneTable(tone.Frequency, sr)
		tone.mixSamples(want[start+lo:start+hi], &fresh, lo, hi, n, edge, false)
		got := &Buffer{SampleRate: sr, Samples: append([]float64(nil), base...)}
		tone.MixTableAt(got, float64(start)/sr, envelope, tab)
		sameSamples(t, got.Samples, want, "MixTableAt %+v, n %d, edge %d, samples [%d, %d)", tone, n, edge, lo, hi)
		if useAVX512 {
			wide := append([]float64(nil), base...)
			tone.mixSamples(wide[start+lo:start+hi], tab, lo, hi, n, edge, true)
			sameSamples(t, wide, want, "AVX-512 %+v, n %d, edge %d, samples [%d, %d)", tone, n, edge, lo, hi)
		}
		if lo < edge {
			attack++
		}
		if hi > n-edge && edge > 0 {
			release++
		}
		if lo%toneBlock != 0 {
			partialFirst++
		}
		if hi%toneBlock != 0 {
			partialLast++
		}
		if lo/toneSuper != (hi-1)/toneSuper {
			crossing++
		}
	}
	t.Logf("%d cases: %d with the attack ramp, %d the release ramp, %d a partial first block, %d a partial last block, %d crossing a superblock boundary",
		trials, attack, release, partialFirst, partialLast, crossing)
	for name, count := range map[string]int{"attack ramp": attack, "release ramp": release,
		"partial first block": partialFirst, "partial last block": partialLast, "superblock crossing": crossing} {
		if count < trials/20 {
			t.Errorf("only %d of %d cases have a %s", count, trials, name)
		}
	}
}

// mixCuts mixes tone, starting at timeline sample toneStart, into a
// silent span-sample timeline, one MixEnvelopeAt call per piece between
// the cut points.
func mixCuts(tone Tone, toneStart, span int, cuts []int) []float64 {
	const sr = 44100.0
	out := make([]float64, 0, span)
	from := 0
	for _, to := range append(cuts, span) {
		c := &Buffer{SampleRate: sr, Samples: make([]float64, to-from)}
		tone.MixEnvelopeAt(c, float64(toneStart-from)/sr, DefaultEnvelope)
		out = append(out, c.Samples...)
		from = to
	}
	return out
}

// sameSamples fails the test at the first sample where got and want
// differ in any bit.
func sameSamples(t *testing.T, got, want []float64, format string, args ...any) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf(format+": %d samples, want %d", append(args, len(got), len(want))...)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf(format+": sample %d = %x, want %x", append(args, i, got[i], want[i])...)
		}
	}
}
