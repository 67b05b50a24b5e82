package dsp

import (
	"math"
	"runtime"
	"sync"
)

// Spectrogram holds the short-time Fourier transform of a signal:
// one spectrum row per analysis frame.
type Spectrogram struct {
	// SampleRate of the analysed signal in Hz.
	SampleRate float64
	// FFTSize is the transform length.
	FFTSize int
	// HopSize is the stride between frames in samples.
	HopSize int
	// Times holds the start time in seconds of each frame.
	Times []float64
	// Power holds, per frame, the half-spectrum power values
	// (FFTSize/2+1 bins).
	Power [][]float64
}

// STFT computes a short-time Fourier transform of x using the given
// window, fftSize and hopSize (both in samples). Frames that would run
// past the end of x are zero-padded. It returns nil when x is shorter
// than one hop.
//
// It reuses one FFTPlan plus pooled scratch across all frames and
// packs every frame through the real-input transform; STFTParallel
// fans the frames out over goroutines.
func STFT(x []float64, sampleRate float64, fftSize, hopSize int, win Window) *Spectrogram {
	return STFTParallel(x, sampleRate, fftSize, hopSize, win, 1)
}

// STFTParallel is STFT with the frames divided among workers
// goroutines, each holding its own plan scratch. workers <= 0 uses
// GOMAXPROCS. Frames are independent, so the result is identical to
// the serial transform.
func STFTParallel(x []float64, sampleRate float64, fftSize, hopSize int, win Window, workers int) *Spectrogram {
	if len(x) == 0 || fftSize <= 0 || hopSize <= 0 {
		return nil
	}
	fftSize = NextPowerOfTwo(fftSize)
	p := PlanFFT(fftSize)
	coef := win.coefficients(fftSize)
	nFrames := (len(x) + hopSize - 1) / hopSize
	half := fftSize/2 + 1
	sg := &Spectrogram{
		SampleRate: sampleRate,
		FFTSize:    fftSize,
		HopSize:    hopSize,
		Times:      make([]float64, nFrames),
		Power:      make([][]float64, nFrames),
	}
	// One flat backing array instead of one allocation per frame.
	flat := make([]float64, nFrames*half)
	for f := 0; f < nFrames; f++ {
		sg.Times[f] = float64(f*hopSize) / sampleRate
		sg.Power[f] = flat[f*half : (f+1)*half : (f+1)*half]
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nFrames {
		workers = nFrames
	}
	doFrame := func(s *FFTScratch, f int) {
		start := f * hopSize
		end := start + fftSize
		if end > len(x) {
			end = len(x)
		}
		s.spec = p.realSpectrumWindowed(s.spec[:0], x[start:end], coef, s)
		powerInto(sg.Power[f], s.spec)
	}
	if workers <= 1 {
		s := p.getScratch()
		for f := 0; f < nFrames; f++ {
			doFrame(s, f)
		}
		p.scratch.Put(s)
		return sg
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := p.getScratch()
			for f := w; f < nFrames; f += workers {
				doFrame(s, f)
			}
			p.scratch.Put(s)
		}(w)
	}
	wg.Wait()
	return sg
}

// NumFrames returns the number of analysis frames.
func (s *Spectrogram) NumFrames() int { return len(s.Power) }

// Mel projects every frame onto the given mel filter bank, producing a
// mel-scaled spectrogram: rows are frames, columns are mel bands. The
// bank must have been built for this spectrogram's FFTSize and
// SampleRate.
func (s *Spectrogram) Mel(bank *MelFilterBank) [][]float64 {
	out := make([][]float64, len(s.Power))
	// One flat backing array instead of one allocation per frame.
	flat := make([]float64, len(s.Power)*bank.NumFilters)
	for i, frame := range s.Power {
		row := flat[i*bank.NumFilters : (i+1)*bank.NumFilters : (i+1)*bank.NumFilters]
		out[i] = bank.ApplyInto(row, frame)
	}
	return out
}

// PowerDB converts a power value to decibels with a -120 dB floor.
func PowerDB(p float64) float64 {
	const floor = -120
	if p <= 0 {
		return floor
	}
	db := 10 * math.Log10(p)
	if db < floor {
		return floor
	}
	return db
}

// AmplitudeDB converts a linear amplitude to decibels (20·log10) with
// a -120 dB floor.
func AmplitudeDB(a float64) float64 {
	const floor = -120
	if a <= 0 {
		return floor
	}
	db := 20 * math.Log10(a)
	if db < floor {
		return floor
	}
	return db
}
