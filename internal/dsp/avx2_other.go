//go:build !amd64

package dsp

// useAVX2 is false off amd64: the portable kernels run.
const useAVX2 = false

// goertzelAVX2 and passAVX2 exist only on amd64; useAVX2 keeps them
// from being called here.
func goertzelAVX2(c *[goertzelLanes]float64, samples []float64, s1, s2 *[goertzelLanes]float64) {
	panic("dsp: AVX2 Goertzel kernel called off amd64")
}

func passAVX2(x, tw []complex128) {
	panic("dsp: AVX2 FFT pass kernel called off amd64")
}
