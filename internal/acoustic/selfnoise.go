package acoustic

import (
	"math"

	"mdn/internal/splitmix"
)

// A microphone's self-noise is a pure function of the sample index:
// sample i is a standard Gaussian drawn from the SplitMix64 output
// splitmix.Mix(key + i·splitmix.Gamma), key hashing the room seed and
// the microphone's name, so any split of a span renders the same noise.
// The bits become a Gaussian through a 256-layer ziggurat (Marsaglia
// and Tsang, 2000; tables after Doornik, 2005): the low 8 bits pick a
// layer, bit 8 the sign and the top 53 a uniform magnitude. About 99 %
// of draws end in one compare and one multiply.

const (
	zigLayers = 256
	zigR      = 3.6541528853610088 // start of the tail
	zigV      = 4.92867323399e-3   // area of every layer
)

var (
	zigX [zigLayers + 1]float64 // layer edges; zigX[0] is the base layer's pseudo-width
	zigF [zigLayers + 1]float64 // exp(−x²/2) at each edge
	zigW [zigLayers]float64     // zigX[i]·2⁻⁵³: magnitude bits to x
	zigK [zigLayers]uint64      // magnitude bits below which layer i is under the curve
)

func init() {
	gauss := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	zigX[0], zigX[1] = zigV/gauss(zigR), zigR
	for i := 2; i < zigLayers; i++ {
		zigX[i] = math.Sqrt(-2 * math.Log(zigV/zigX[i-1]+gauss(zigX[i-1])))
	}
	for i := range zigX {
		zigF[i] = gauss(zigX[i])
	}
	for i := range zigW {
		zigW[i] = zigX[i] * 0x1p-53
		zigK[i] = uint64(zigX[i+1] / zigX[i] * 0x1p53)
	}
}

// noiseKey is the self-noise stream of the microphone called name in a
// room seeded with seed. The name enters as its FNV-1a hash, so
// same-length names (mic-0, mic-1, ...) get distinct streams.
func noiseKey(seed int64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return splitmix.Mix(uint64(seed) ^ splitmix.Mix(h))
}

// addSelfNoise adds rms times the self-noise of stream key to s, whose
// first sample has absolute index first.
func addSelfNoise(s []float64, rms float64, key uint64, first int64) {
	c := key + uint64(first)*splitmix.Gamma
	for i := range s {
		u := splitmix.Mix(c)
		c += splitmix.Gamma
		l, m := u&0xff, u>>11
		if m >= zigK[l] {
			s[i] += float64(zigSlow(u) * rms)
			continue
		}
		// Bit 8 moved to bit 63 is the sign: no branch to mispredict.
		x := float64(int64(m)) * zigW[l]
		s[i] += float64(math.Float64frombits(math.Float64bits(x)^(u&0x100)<<55) * rms)
	}
}

// zigSlow finishes a draw whose bits u missed the fast path: the point
// lies in a wedge or, in the base layer, the tail beyond zigR. A
// rejected wedge point redraws from re-mixed bits.
func zigSlow(u uint64) float64 {
	uniform := func() float64 { // (0, 1]
		u = splitmix.Mix(u + splitmix.Gamma)
		return float64(int64(u>>11)+1) * 0x1p-53
	}
	for {
		sign, l := u&0x100 != 0, u&0xff
		x := float64(int64(u>>11)) * zigW[l]
		switch {
		case u>>11 < zigK[l]: // a redraw on the fast path
		case l == 0:
			for x = 0; x == 0; {
				t := -math.Log(uniform()) / zigR // Marsaglia's tail (1964)
				if -2*math.Log(uniform()) > t*t {
					x = zigR + t
				}
			}
		case zigF[l]+float64(uniform()*(zigF[l+1]-zigF[l])) >= math.Exp(-0.5*x*x):
			u = splitmix.Mix(u + splitmix.Gamma)
			continue
		}
		if sign {
			return -x
		}
		return x
	}
}
