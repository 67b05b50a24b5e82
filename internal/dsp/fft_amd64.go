package dsp

// passAVX2 is passGo in AVX2: one fused pair of FFT stages over x, with
// the pass table tw (len(tw) = 3h, h even) laid out as FFTPlan.passes
// describes.
//
//go:noescape
func passAVX2(x, tw []complex128)

// passAVX512 is passAVX2 four butterflies at a time, for passes whose h
// is a multiple of four.
//
//go:noescape
func passAVX512(x, tw []complex128)

// frontAVX512 is the front end of the packed real transform in one pass:
// packing x (scaled by coef when non-nil) into the bit-reversed slots
// of z, the size-2 stage and pass 0 (tw) of the len(z)-point half plan,
// whose bit reversal starts rev. len(z) >= 32 and len(rev) = len(z)/32;
// lim[r] = len(x) - r*len(z)/4. See FFTPlan.packedSpectrum.
//
//go:noescape
func frontAVX512(z []complex128, x, coef []float64, rev []int32, tw []complex128, lim *[8]int64)

// peakAVX512 is the power tail of PeakAmplitudesScratch: for run i of
// bins (bins[end[i-1]:end[i]], consecutive and strictly between 0 and
// len(z)), it splits the packed half spectrum z into the real
// transform's bins with the twiddles tw, takes the largest |X[k]|², or
// 0, and stores 2·√best/den in dst[i]. Four bins of a run go through
// split and |X|² per iteration, and eight runs through √ and the
// divide; each operation rounds as split, power and peakGo do.
//
//go:noescape
func peakAVX512(dst []float64, z, tw []complex128, bins, end []int, den float64)
