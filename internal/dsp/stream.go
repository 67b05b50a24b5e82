package dsp

// OverlapSTFT is an incremental STFT front end: a sample ring of one
// window plus per-hop spectrum evaluation. Each
// hop appends only the new samples; the window-minus-hop overlap is
// saved in the ring and re-read rather than re-captured — the
// overlap-save discipline, applied to analysis frames. Frame spectra
// are computed with the cached FFTPlan over caller-owned scratch, so
// steady-state frames allocate nothing and match
// FFTPlan.WindowedSpectrumScratch over the same window bit for bit.
//
// An OverlapSTFT is not safe for concurrent use.
type OverlapSTFT struct {
	// WindowN is the analysis window length in samples.
	WindowN int

	ring   []float64 // capacity WindowN, write index w
	w      int
	filled int

	lin  []float64 // linearized window scratch
	mags []float64 // spectrum magnitudes scratch
	plan *FFTPlan
	scr  FFTScratch
}

// NewOverlapSTFT builds a streaming STFT over windows of windowN
// samples. windowN must be positive.
func NewOverlapSTFT(windowN int) *OverlapSTFT {
	if windowN <= 0 {
		panic("dsp: OverlapSTFT requires a positive window")
	}
	return &OverlapSTFT{
		WindowN: windowN,
		ring:    make([]float64, windowN),
		lin:     make([]float64, windowN),
		plan:    PlanFFT(NextPowerOfTwo(windowN)),
	}
}

// Append pushes new samples into the ring, discarding the oldest when
// full. Appending more than WindowN samples at once keeps only the
// newest WindowN.
func (o *OverlapSTFT) Append(samples []float64) {
	if len(samples) > o.WindowN {
		samples = samples[len(samples)-o.WindowN:]
	}
	for _, x := range samples {
		o.ring[o.w] = x
		o.w++
		if o.w == o.WindowN {
			o.w = 0
		}
	}
	o.filled += len(samples)
	if o.filled > o.WindowN {
		o.filled = o.WindowN
	}
}

// Full reports whether a complete window has been appended.
func (o *OverlapSTFT) Full() bool { return o.filled == o.WindowN }

// Reset discards the ring contents.
func (o *OverlapSTFT) Reset() {
	o.w = 0
	o.filled = 0
}

// Window writes the current window (oldest sample first) into the
// returned slice, which is scratch owned by the OverlapSTFT, valid
// until the next Append. It is only meaningful once Full.
func (o *OverlapSTFT) Window() []float64 {
	n := copy(o.lin, o.ring[o.w:])
	copy(o.lin[n:], o.ring[:o.w])
	return o.lin
}

// Spectrum computes the windowed half-spectrum magnitudes of the
// current window under win, bit-exact with
// PlanFFT(NextPowerOfTwo(WindowN)).WindowedSpectrumScratch over the
// same samples. The returned slice is scratch owned by the
// OverlapSTFT, valid until the next Spectrum call. Steady-state calls
// allocate nothing.
func (o *OverlapSTFT) Spectrum(win Window) []float64 {
	o.mags = o.plan.WindowedSpectrumScratch(o.mags, o.Window(), win, &o.scr)
	return o.mags
}
