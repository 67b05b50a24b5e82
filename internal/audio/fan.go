package audio

import (
	"math"
	"math/rand"
)

// exp2 returns 2**x.
func exp2(x float64) float64 { return math.Exp2(x) }

// Fan models a server cooling fan as heard by a nearby microphone
// (Section 7 of the paper). The acoustic signature of an axial fan is
// a blade-pass fundamental (RPM/60 × blade count) with a stack of
// fanHarmonics harmonics riding on broadband turbulence noise at a
// quarter of the fundamental's level. A failed fan contributes
// nothing.
type Fan struct {
	// RPM is the rotational speed. Typical 1U server fans spin at
	// 9–15 kRPM; the default model uses 9000.
	RPM float64
	// Blades is the blade count (commonly 7).
	Blades int
	// Level is the amplitude of the blade-pass fundamental at the
	// fan itself.
	Level float64
	// Seed decorrelates the turbulence of different fans.
	Seed int64
}

// fanHarmonics is how many harmonics, fundamental included, a fan
// renders.
const fanHarmonics = 5

// DefaultFan returns the reference server fan used by the Figure 6/7
// experiments: 9000 RPM, 7 blades.
func DefaultFan(level float64, seed int64) Fan {
	return Fan{RPM: 9000, Blades: 7, Level: level, Seed: seed}
}

// BladePassHz returns the fundamental blade-pass frequency.
func (f Fan) BladePassHz() float64 {
	blades := f.Blades
	if blades <= 0 {
		blades = 7
	}
	return f.RPM / 60 * float64(blades)
}

// HarmonicFrequencies returns the frequencies of the rendered
// harmonic stack (fundamental first). These are the bands the
// fan-failure detector watches.
func (f Fan) HarmonicFrequencies() []float64 {
	base := f.BladePassHz()
	out := make([]float64, fanHarmonics)
	for i := range out {
		out[i] = base * float64(i+1)
	}
	return out
}

// Render synthesizes d seconds of the running fan: the harmonic stack
// with 1/k amplitude roll-off, slight frequency jitter (real fans
// hunt around their set point), and broadband turbulence.
func (f Fan) Render(sampleRate, d float64) *Buffer {
	out := NewBuffer(sampleRate, d)
	if len(out.Samples) == 0 {
		return out
	}
	rng := rand.New(rand.NewSource(f.Seed))
	level := f.Level
	if level <= 0 {
		level = 0.3
	}
	// Harmonic stack with slow random-walk frequency jitter.
	freqs := f.HarmonicFrequencies()
	phases := make([]float64, len(freqs))
	jitter := 0.0
	jitterStep := int(0.05 * sampleRate) // re-jitter every 50 ms
	if jitterStep < 1 {
		jitterStep = 1
	}
	for i := range out.Samples {
		if i%jitterStep == 0 {
			jitter += float64(rng.NormFloat64() * 0.0005)
			if jitter > 0.005 {
				jitter = 0.005
			}
			if jitter < -0.005 {
				jitter = -0.005
			}
		}
		v := 0.0
		for k, base := range freqs {
			w := 2 * math.Pi * base * (1 + jitter) / sampleRate
			phases[k] += w
			v += float64(level / float64(k+1) * math.Sin(phases[k]))
		}
		out.Samples[i] = v
	}
	out.MixAt(PinkNoise(sampleRate, d, level/4, f.Seed+100), 0, 1)
	return out
}

// DatacenterAmbience models the ~85 dBA background of a machine room:
// many uncorrelated fans at various speeds plus HVAC rumble. The
// returned buffer has the requested RMS level. None of the ambience
// fans share the foreground fan's exact RPM, so the foreground
// harmonics remain attributable.
func DatacenterAmbience(sampleRate, d, rms float64, seed int64) *Buffer {
	out := NewBuffer(sampleRate, d)
	if len(out.Samples) == 0 {
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	// 12 background fans with randomised RPMs (avoiding 9000 ± 300).
	for i := 0; i < 12; i++ {
		rpm := 6000 + float64(rng.Float64()*9000)
		if rpm > 8700 && rpm < 9300 {
			rpm += 700
		}
		f := Fan{
			RPM:    rpm,
			Blades: 5 + rng.Intn(4),
			Level:  0.05 + float64(rng.Float64()*0.15),
			Seed:   seed + int64(i)*17,
		}
		out.MixAt(f.Render(sampleRate, d), 0, 1)
	}
	// HVAC rumble: heavy pink noise.
	out.MixAt(PinkNoise(sampleRate, d, 0.3, seed+999), 0, 1)
	cur := out.RMS()
	if cur > 0 {
		out.Gain(rms / cur)
	}
	return out
}

// OfficeAmbience models a ~50 dBA office: gentle pink noise with slow
// level movement (conversation, keyboards) at the requested RMS.
func OfficeAmbience(sampleRate, d, rms float64, seed int64) *Buffer {
	return CrowdNoise(sampleRate, d, rms, seed)
}
