// Package acoustic models the sound channel of the Music-Defined
// Networking testbed: speakers attached to switches (via Raspberry
// Pis, in the paper), microphones attached to the MDN controller, and
// the air in between.
//
// The model captures the three properties the paper's detection
// results depend on: inverse-square-law attenuation with distance,
// propagation delay at the speed of sound, and additive mixing of
// concurrent emitters plus background noise. Capture is
// window-oriented: a microphone renders the exact waveform it would
// have recorded over any [from, to) interval of the experiment, which
// keeps the whole simulation deterministic and allows the detector to
// poll in fixed-size chunks exactly like a real audio capture loop.
package acoustic

import "math"

// SpeedOfSound is the propagation speed used for delays, in m/s.
const SpeedOfSound = 343.0

// FullScaleSPL is the calibration constant tying linear amplitudes to
// the paper's sound-pressure levels: a source of linear amplitude 1.0
// measured at 1 m reads 90 dB SPL. With this calibration the paper's
// reference points land at sensible amplitudes: a 30 dB tone (the
// paper's minimum) is 10^((30-90)/20) = 1e-3, normal conversation
// (~50 dB) is 1e-2, and a datacenter (~85 dBA) is ~0.56.
const FullScaleSPL = 90.0

// SPLToAmplitude converts a sound pressure level in dB (at 1 m from
// the source) to the linear source amplitude under the package
// calibration.
func SPLToAmplitude(db float64) float64 {
	return math.Pow(10, (db-FullScaleSPL)/20)
}

// Position is a location on the room's floor plan, in metres: every
// device sits at one height.
type Position struct {
	X, Y float64
}

// Distance returns the Euclidean distance between two positions.
func (p Position) Distance(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(float64(dx*dx) + float64(dy*dy))
}

// minDistance clamps source-microphone distance so co-located devices
// do not produce infinite gain (physically: you cannot put a
// microphone inside the speaker cone).
const minDistance = 0.1

// attenuation returns the amplitude scale factor for a source heard
// at the given distance, using the 1/r free-field law referenced to
// 1 m.
func attenuation(distance float64) float64 {
	if distance < minDistance {
		distance = minDistance
	}
	return 1 / distance
}

// delay returns the propagation delay in seconds over the given
// distance.
func delay(distance float64) float64 {
	return distance / SpeedOfSound
}

// AirAbsorptionDBPerMetre returns the atmospheric absorption
// coefficient α(f) in dB per metre at roomish conditions (20 °C,
// ~50% relative humidity), using a power-law fit to the ISO 9613-1
// tabulation: ≈0.01 dB/m at 1 kHz rising to ≈1.2 dB/m at 40 kHz.
// Absorption is why the Section 8 ultrasound direction trades range
// for capacity: high frequencies die in the air long before the 1/r
// law would silence them.
func AirAbsorptionDBPerMetre(freq float64) float64 {
	if freq <= 0 {
		return 0
	}
	return 0.01 * math.Pow(freq/1000, 1.3)
}

// airAbsorption returns the extra amplitude factor (≤1) lost to
// atmospheric absorption over the given distance.
func airAbsorption(freq, distance float64) float64 {
	db := AirAbsorptionDBPerMetre(freq) * distance
	return math.Pow(10, -db/20)
}
