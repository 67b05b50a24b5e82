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

// useAVX512 selects the AVX-512 Goertzel kernel for watch lists longer
// than one AVX2 pass. It is decided once, at package init, on top of
// useAVX2: the CPU must report AVX-512F, and the operating system must
// save the opmask and all 32 ZMM registers across context switches.
var useAVX512 = useAVX2 && hasAVX512()

// hasAVX512 reads the AVX-512F feature bits; call it only when hasAVX2
// holds, which checks OSXSAVE for XGETBV. XCR0 must show the opmask,
// the upper halves of ZMM0-15 and ZMM16-31 enabled, and CPUID leaf 7
// must report AVX-512F. The kernels use no other AVX-512 subset.
func hasAVX512() bool {
	const (
		zmm     = 1<<5 | 1<<6 | 1<<7 // XCR0: opmask, ZMM_Hi256, Hi16_ZMM
		avx512f = 1 << 16            // CPUID.(7,0):EBX
	)
	if xcr0, _ := xgetbv(); xcr0&zmm != zmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx512f != 0
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

// goertzelAVX512 runs the first chains (1..10) eight-resonator chains
// with coefficients c over samples, from zero state, and stores each of
// their lanes' final Goertzel state: s1 the last output, s2 the one
// before. Lanes past 8*chains hold nothing to read.
//
//go:noescape
func goertzelAVX512(c *[goertzelZLanes]float64, chains int, samples []float64, s1, s2 *[goertzelZLanes]float64)
