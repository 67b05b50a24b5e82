package dsp

import "math"

// HzToMel converts a frequency in Hz to the mel scale using the
// O'Shaughnessy formula (the one used by common audio toolkits, and by
// the paper's mel-scaled spectrograms).
func HzToMel(hz float64) float64 {
	return 2595 * math.Log10(1+hz/700)
}

// MelToHz converts a mel value back to Hz.
func MelToHz(mel float64) float64 {
	return 700 * (math.Pow(10, mel/2595) - 1)
}

// MelFilterBank is a set of triangular filters spaced evenly on the
// mel scale, used to produce mel-scaled spectrograms (Figures 3b, 4,
// 5b/5d and 6 of the paper).
type MelFilterBank struct {
	// NumFilters is the number of triangular filters.
	NumFilters int
	// FFTSize is the transform length the bank was built for.
	FFTSize int
	// SampleRate is the sample rate in Hz.
	SampleRate float64
	// CenterHz holds the centre frequency of each filter in Hz.
	CenterHz []float64

	weights [][]float64 // per filter: weight per FFT bin (half spectrum)
}

// NewMelFilterBank builds a bank of numFilters triangular mel filters
// covering [minHz, maxHz] for spectra of length fftSize/2+1.
func NewMelFilterBank(numFilters, fftSize int, sampleRate, minHz, maxHz float64) *MelFilterBank {
	if numFilters <= 0 || fftSize <= 0 || sampleRate <= 0 {
		panic("dsp: NewMelFilterBank requires positive parameters")
	}
	if maxHz <= minHz {
		panic("dsp: NewMelFilterBank requires maxHz > minHz")
	}
	nyquist := sampleRate / 2
	if maxHz > nyquist {
		maxHz = nyquist
	}
	melMin := HzToMel(minHz)
	melMax := HzToMel(maxHz)
	// numFilters filters need numFilters+2 edge points.
	edges := make([]float64, numFilters+2)
	for i := range edges {
		mel := melMin + (melMax-melMin)*float64(i)/float64(numFilters+1)
		edges[i] = MelToHz(mel)
	}
	half := fftSize/2 + 1
	bank := &MelFilterBank{
		NumFilters: numFilters,
		FFTSize:    fftSize,
		SampleRate: sampleRate,
		CenterHz:   make([]float64, numFilters),
		weights:    make([][]float64, numFilters),
	}
	for f := 0; f < numFilters; f++ {
		lo, mid, hi := edges[f], edges[f+1], edges[f+2]
		bank.CenterHz[f] = mid
		w := make([]float64, half)
		for k := 0; k < half; k++ {
			hz := BinFrequency(k, fftSize, sampleRate)
			switch {
			case hz < lo || hz > hi:
				// outside the triangle
			case hz <= mid && mid > lo:
				w[k] = (hz - lo) / (mid - lo)
			case hz > mid && hi > mid:
				w[k] = (hi - hz) / (hi - mid)
			}
		}
		bank.weights[f] = w
	}
	return bank
}

// ApplyInto projects a half-spectrum (len FFTSize/2+1 power or
// magnitude values) onto the filter bank, writing one energy per
// filter into dst (reusing its capacity), so steady-state projections
// are allocation-free.
func (b *MelFilterBank) ApplyInto(dst, spectrum []float64) []float64 {
	dst = growFloat(dst, b.NumFilters)
	for f, w := range b.weights {
		var sum float64
		n := len(spectrum)
		if len(w) < n {
			n = len(w)
		}
		for k := 0; k < n; k++ {
			sum += float64(w[k] * spectrum[k])
		}
		dst[f] = sum
	}
	return dst
}
