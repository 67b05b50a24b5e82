package dsp

// passAVX2 is passGo in AVX2: one fused pair of FFT stages over x, with
// the pass table tw (len(tw) = 3h, h even) laid out as FFTPlan.passes
// describes.
//
//go:noescape
func passAVX2(x, tw []complex128)
