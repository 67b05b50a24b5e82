package dsp

import (
	"math"
	"testing"
)

// streamTestSignal synthesizes a deterministic multi-tone signal with a
// pseudo-noise floor: two MDN-ish tones (not bin-aligned) plus an LCG
// noise stream, so resonator states take non-trivial values in every
// window.
func streamTestSignal(n int, rate float64) []float64 {
	s := make([]float64, n)
	lcg := uint64(0x9e3779b97f4a7c15)
	for i := range s {
		t := float64(i) / rate
		lcg = lcg*6364136223846793005 + 1442695040888963407
		noise := (float64(lcg>>11)/float64(1<<53) - 0.5) * 0.01
		s[i] = 0.2*math.Sin(2*math.Pi*1017*t) +
			0.05*math.Sin(2*math.Pi*2531*t+0.7) + noise
	}
	return s
}

func TestOverlapSTFTBitExactWithBatch(t *testing.T) {
	const (
		rate    = 44100.0
		windowN = 2205
		hopN    = 441
	)
	signal := streamTestSignal(windowN*4, rate)
	o := NewOverlapSTFT(windowN)
	plan := PlanFFT(NextPowerOfTwo(windowN))
	var ref []float64
	var scr FFTScratch
	frames := 0
	for off := 0; off+hopN <= len(signal); off += hopN {
		o.Append(signal[off : off+hopN])
		if !o.Full() {
			continue
		}
		got := o.Spectrum(Hann)
		winStart := off + hopN - windowN
		ref = plan.WindowedSpectrumScratch(ref, signal[winStart:winStart+windowN], Hann, &scr)
		if len(got) != len(ref) {
			t.Fatalf("spectrum length %d != batch %d", len(got), len(ref))
		}
		for k := range got {
			if got[k] != ref[k] {
				t.Fatalf("frame at sample %d bin %d: streaming %v != batch %v",
					winStart, k, got[k], ref[k])
			}
		}
		frames++
	}
	if want := (len(signal)-windowN)/hopN + 1; frames != want {
		t.Errorf("computed %d frames, want %d", frames, want)
	}
}

func TestOverlapSTFTAppendOversizedKeepsNewest(t *testing.T) {
	const windowN = 8
	o := NewOverlapSTFT(windowN)
	long := make([]float64, 3*windowN)
	for i := range long {
		long[i] = float64(i)
	}
	o.Append(long)
	if !o.Full() {
		t.Fatal("oversized append did not fill the ring")
	}
	win := o.Window()
	for i, x := range win {
		if want := float64(len(long) - windowN + i); x != want {
			t.Fatalf("window[%d] = %g, want %g (newest %d samples)", i, x, want, windowN)
		}
	}
}

func TestOverlapSTFTSpectrumAllocs(t *testing.T) {
	const rate, windowN, hopN = 44100.0, 2205, 441
	o := NewOverlapSTFT(windowN)
	signal := streamTestSignal(windowN, rate)
	o.Append(signal)
	o.Spectrum(Hann) // warm up scratch
	hop := signal[:hopN]
	if got := testing.AllocsPerRun(100, func() {
		o.Append(hop)
		o.Spectrum(Hann)
	}); got != 0 {
		t.Errorf("Append+Spectrum allocates %g/op, want 0", got)
	}
}
