// Package splitmix is SplitMix64 (Steele, Lea and Flood, 2014) used as
// a counter-based generator (Salmon et al., SC'11): draw n of the
// stream keyed k is Mix(k + n·Gamma), a pure function of (k, n). It is
// the project's one 64-bit mixer: microphone self-noise, sketch
// hashing, flow phases, sweep seeds and the fault and retry streams
// all draw from it.
package splitmix

import "math/bits"

// Gamma is SplitMix64's increment, the odd integer nearest 2⁶⁴/φ.
const Gamma = 0x9e3779b97f4a7c15

// Mix is SplitMix64's output function, a bijection on 64 bits whose
// output passes strong avalanche tests.
func Mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Unit maps 64 random bits to [0, 1): the top 53 bits times 2⁻⁵³.
func Unit(z uint64) float64 { return float64(z>>11) * 0x1p-53 }

// Stream is a deterministic random stream in 16 bytes: a key and a
// draw counter.
type Stream struct {
	key, n uint64
}

// New returns the stream seeded with seed. Its key is Mix(seed), so
// neighbouring seeds give unrelated streams.
func New(seed int64) Stream { return Stream{key: Mix(uint64(seed))} }

func (s *Stream) next() uint64 {
	z := Mix(s.key + s.n*Gamma)
	s.n++
	return z
}

// Float64 returns the next draw, uniform in [0, 1).
func (s *Stream) Float64() float64 { return Unit(s.next()) }

// Intn returns the next draw, uniform in [0, n) up to a bias below
// n·2⁻⁶⁴: the high word of the draw's bits times n. n must be
// positive.
func (s *Stream) Intn(n int) int {
	hi, _ := bits.Mul64(s.next(), uint64(n))
	return int(hi)
}
