package audio

// useAVX512 selects the AVX-512 kernel of Tone.mixSamples. It is
// decided once, at package init: CPUID leaf 1 must report OSXSAVE,
// XGETBV must show the XMM, YMM, opmask and all 32 ZMM registers' state
// enabled in XCR0 (so the operating system saves them across context
// switches), and CPUID leaf 7 must report AVX-512F, the only subset the
// kernel uses.
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

// mixSpanAVX512 is Tone.mixSpan in AVX-512, with the tone's amplitude
// passed as amp: it adds samples [first, first+len(out)) of an n-sample
// tone with edge-sample ramps into out, block by block from a (a
// multiple of toneBlock, at most first) with anchor (sa, ca), up to the
// end of a's superblock. Ramps and partial blocks run eight samples at a
// time too, under an opmask.
//
//go:noescape
func mixSpanAVX512(out []float64, tab *ToneTable, amp, sa, ca float64, a, first, n, edge int)
