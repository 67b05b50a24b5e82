package audio

// useAVX512 selects the AVX-512 kernel for the whole unramped blocks of
// Tone.mixSamples. It is decided once, at package init: CPUID leaf 1
// must report OSXSAVE, XGETBV must show the XMM, YMM, opmask and all 32
// ZMM registers' state enabled in XCR0 (so the operating system saves
// them across context switches), and CPUID leaf 7 must report
// AVX-512F, the only subset the kernel uses.
var useAVX512 = hasAVX512()

func hasAVX512() bool {
	const (
		osxsave = 1 << 27                          // CPUID.1:ECX
		state   = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7 // XCR0: SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
		avx512f = 1 << 16                          // CPUID.(7,0):EBX
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&state != state {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx512f != 0
}

// cpuid executes CPUID for the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0. Call it only when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// mixBlocksAVX512 adds len(out)/toneBlock whole blocks of a tone into
// out, which must hold a positive whole number of blocks. Block b's
// anchor is (sa, ca) rotated b times by (sr, cr); each block adds
// amp·sa·cosK[k] + amp·ca·sinK[k] to out[k] and then rotates the anchor,
// with mixSamples's operations in its order. It returns the anchor after
// the last block's rotation.
//
//go:noescape
func mixBlocksAVX512(out []float64, cosK, sinK *[toneBlock]float64, amp, sa, ca, sr, cr float64) (sa2, ca2 float64)
