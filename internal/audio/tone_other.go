//go:build !amd64

package audio

// useAVX512 is false off amd64: mixSamples runs in Go.
const useAVX512 = false

// mixSpanAVX512 exists only on amd64; useAVX512 keeps it from being
// called here.
func mixSpanAVX512(out []float64, tab *ToneTable, amp, sa, ca float64, a, first, n, edge int) {
	panic("audio: AVX-512 tone kernel called off amd64")
}
