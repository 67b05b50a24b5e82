//go:build !amd64

package dsp

// useAVX2 and useAVX512 are false off amd64: the portable kernels run.
const (
	useAVX2   = false
	useAVX512 = false
)

// goertzelAVX2, goertzelAVX512, passAVX2, passAVX512, frontAVX512 and
// peakAVX512 exist only on amd64;
// useAVX2 and useAVX512 keep them from being called here.
func goertzelAVX2(c *[goertzelLanes]float64, samples []float64, s1, s2 *[goertzelLanes]float64) {
	panic("dsp: AVX2 Goertzel kernel called off amd64")
}

func goertzelAVX512(c *[goertzelZLanes]float64, chains int, samples []float64, s1, s2 *[goertzelZLanes]float64) {
	panic("dsp: AVX-512 Goertzel kernel called off amd64")
}

func passAVX2(x, tw []complex128) {
	panic("dsp: AVX2 FFT pass kernel called off amd64")
}

func passAVX512(x, tw []complex128) {
	panic("dsp: AVX-512 FFT pass kernel called off amd64")
}

func frontAVX512(z []complex128, x, coef []float64, rev []int32, tw []complex128, lim *[8]int64) {
	panic("dsp: AVX-512 FFT front end called off amd64")
}

func peakAVX512(dst []float64, z, tw []complex128, bins, end []int, den float64) {
	panic("dsp: AVX-512 power tail called off amd64")
}
