//go:build !amd64

package audio

// useAVX512 is false off amd64: mixSamples runs in Go.
const useAVX512 = false

// mixBlocksAVX512 exists only on amd64; useAVX512 keeps it from being
// called here.
func mixBlocksAVX512(out []float64, cosK, sinK *[toneBlock]float64, amp, sa, ca, sr, cr float64) (sa2, ca2 float64) {
	panic("audio: AVX-512 tone kernel called off amd64")
}
