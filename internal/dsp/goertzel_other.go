//go:build !amd64

package dsp

// useAVX2 is false off amd64: the portable kernel runs.
const useAVX2 = false

// goertzelAVX2 exists only on amd64; useAVX2 keeps it from being
// called here.
func goertzelAVX2(c *[goertzelLanes]float64, samples []float64, s1, s2 *[goertzelLanes]float64) {
	panic("dsp: AVX2 Goertzel kernel called off amd64")
}
