package dsp

// useAVX2 selects the AVX2 kernels, the Goertzel bank's and the FFT
// passes'. It is decided once, at package init: the CPU must report
// AVX2, and the operating system must save the YMM registers across
// context switches.
var useAVX2 = hasAVX2()

// hasAVX2 reads the feature bits the way the Intel SDM prescribes for
// AVX2: CPUID leaf 1 reports OSXSAVE and AVX, XGETBV shows the XMM and
// YMM state enabled in XCR0, and CPUID leaf 7 reports AVX2.
func hasAVX2() bool {
	const (
		osxsave = 1 << 27     // CPUID.1:ECX
		avx     = 1 << 28     // CPUID.1:ECX
		xmmYmm  = 1<<1 | 1<<2 // XCR0: SSE and AVX state
		avx2    = 1 << 5      // CPUID.(7,0):EBX
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// cpuid executes CPUID for the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0. Call it only when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// goertzelAVX2 runs 24 resonators with coefficients c over samples,
// from zero state, and stores each lane's final Goertzel state: s1 the
// last output, s2 the one before.
//
//go:noescape
func goertzelAVX2(c *[goertzelLanes]float64, samples []float64, s1, s2 *[goertzelLanes]float64)
