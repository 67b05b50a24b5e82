package audio

import "math/rand"

// WhiteNoise returns d seconds of Gaussian white noise with the given
// RMS amplitude, generated deterministically from seed.
func WhiteNoise(sampleRate, d, rms float64, seed int64) *Buffer {
	b := NewBuffer(sampleRate, d)
	rng := rand.New(rand.NewSource(seed))
	for i := range b.Samples {
		b.Samples[i] = rng.NormFloat64() * rms
	}
	return b
}

// PinkNoise returns d seconds of approximately 1/f ("pink") noise with
// the given RMS amplitude, using the Voss-McCartney multi-octave
// summation. Pink noise is a better stand-in for room ambience than
// white noise because real background noise is low-frequency heavy.
func PinkNoise(sampleRate, d, rms float64, seed int64) *Buffer {
	b := NewBuffer(sampleRate, d)
	if len(b.Samples) == 0 {
		return b
	}
	rng := rand.New(rand.NewSource(seed))
	const rows = 16
	var vals [rows]float64
	var sum float64
	for i := range vals {
		vals[i] = rng.NormFloat64()
		sum += vals[i]
	}
	counter := 0
	for i := range b.Samples {
		counter++
		// Update the row matching the lowest set bit of the counter:
		// row r updates every 2^r samples.
		row := 0
		for c := counter; c&1 == 0 && row < rows-1; c >>= 1 {
			row++
		}
		sum -= vals[row]
		vals[row] = rng.NormFloat64()
		sum += vals[row]
		b.Samples[i] = sum
	}
	// Scale to the requested RMS.
	cur := b.RMS()
	if cur > 0 {
		b.Gain(rms / cur)
	}
	return b
}

// CrowdNoise models the hum of a working environment: pink noise with
// slow amplitude modulation so the level breathes like real rooms do.
func CrowdNoise(sampleRate, d, rms float64, seed int64) *Buffer {
	b := PinkNoise(sampleRate, d, rms, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	// Random-walk the gain every ~100 ms.
	step := int(0.1 * sampleRate)
	if step < 1 {
		step = 1
	}
	gain := 1.0
	for i := range b.Samples {
		if i%step == 0 {
			gain += float64(rng.NormFloat64() * 0.05)
			if gain < 0.6 {
				gain = 0.6
			}
			if gain > 1.4 {
				gain = 1.4
			}
		}
		b.Samples[i] *= gain
	}
	return b
}
