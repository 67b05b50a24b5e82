// Package dsp implements the signal-processing substrate for
// Music-Defined Networking: a radix-2 FFT, window functions, the
// Goertzel single-bin detector, mel-scale utilities, STFT
// spectrograms, and peak picking.
//
// Everything is built on the standard library only. All transforms
// operate on float64 (or complex128) slices and are deterministic.
package dsp

import (
	"math"
	"math/bits"
)

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPowerOfTwo returns the smallest power of two >= n.
// It panics if n is not positive or overflows an int.
func NextPowerOfTwo(n int) int {
	if n <= 0 {
		panic("dsp: NextPowerOfTwo requires n > 0")
	}
	if IsPowerOfTwo(n) {
		return n
	}
	p := 1 << bits.Len(uint(n))
	if p <= 0 {
		panic("dsp: NextPowerOfTwo overflow")
	}
	return p
}

// FFTReal transforms a real-valued signal. The input is zero-padded to
// the next power of two when necessary. It returns the full complex
// spectrum of length NextPowerOfTwo(len(x)).
//
// Internally it runs the packed real transform (half the butterflies)
// and mirrors the half spectrum via conjugate symmetry. Callers that
// only need the non-negative bins should use FFTPlan.RealSpectrumInto
// and skip the mirroring and the allocation.
func FFTReal(x []float64) []complex128 {
	if len(x) == 0 {
		return nil
	}
	n := NextPowerOfTwo(len(x))
	p := PlanFFT(n)
	out := make([]complex128, n)
	half := p.RealSpectrumInto(out[:0], x)
	// Mirror X[n-k] = conj(X[k]) into the upper half. half aliases
	// out[:n/2+1], so walk outward-in.
	for k := n/2 + 1; k < n; k++ {
		c := half[n-k]
		out[k] = complex(real(c), -imag(c))
	}
	return out
}

// PowerSpectrum returns |X[k]|^2 for the non-negative frequency bins.
func PowerSpectrum(x []complex128) []float64 {
	if len(x) == 0 {
		return nil
	}
	half := len(x)/2 + 1
	out := make([]float64, half)
	for i := 0; i < half; i++ {
		re := real(x[i])
		im := imag(x[i])
		out[i] = float64(re*re) + float64(im*im)
	}
	return out
}

// BinFrequency returns the centre frequency in Hz of FFT bin k for a
// transform of length fftSize at the given sample rate.
func BinFrequency(k, fftSize int, sampleRate float64) float64 {
	return float64(k) * sampleRate / float64(fftSize)
}

// FrequencyBin returns the FFT bin index whose centre frequency is
// closest to freq for a transform of length fftSize at sampleRate.
func FrequencyBin(freq float64, fftSize int, sampleRate float64) int {
	k := int(math.Round(freq * float64(fftSize) / sampleRate))
	if k < 0 {
		k = 0
	}
	if k > fftSize/2 {
		k = fftSize / 2
	}
	return k
}

// BinResolution returns the frequency width in Hz of one FFT bin.
func BinResolution(fftSize int, sampleRate float64) float64 {
	return sampleRate / float64(fftSize)
}

// WindowedSpectrum windows x (without modifying it), zero-pads to the
// next power of two, and returns the half-spectrum magnitudes and the
// transform size. It is the analysis front end shared by the MDN
// detectors — a thin allocating wrapper over
// FFTPlan.WindowedSpectrumInto, which hot paths should call directly
// with a reused destination slice.
func WindowedSpectrum(x []float64, win Window) (mags []float64, fftSize int) {
	if len(x) == 0 {
		return nil, 0
	}
	n := NextPowerOfTwo(len(x))
	return PlanFFT(n).WindowedSpectrumInto(nil, x, win), n
}

// WindowedPowerSpectrum is WindowedSpectrum returning power values.
func WindowedPowerSpectrum(x []float64, win Window) (power []float64, fftSize int) {
	if len(x) == 0 {
		return nil, 0
	}
	n := NextPowerOfTwo(len(x))
	return PlanFFT(n).WindowedPowerSpectrumInto(nil, x, win), n
}
