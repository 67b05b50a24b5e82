package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMelRoundTripProperty(t *testing.T) {
	f := func(hz float64) bool {
		hz = math.Abs(math.Mod(hz, 20000))
		back := MelToHz(HzToMel(hz))
		return math.Abs(back-hz) < 1e-6*(1+hz)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMelMonotonic(t *testing.T) {
	prev := HzToMel(0)
	for hz := 10.0; hz <= 20000; hz += 10 {
		m := HzToMel(hz)
		if m <= prev {
			t.Fatalf("mel scale not monotonic at %g Hz", hz)
		}
		prev = m
	}
}

func TestMelKnownValues(t *testing.T) {
	// 1000 Hz is ~999.99 mel under the O'Shaughnessy formula.
	if m := HzToMel(1000); math.Abs(m-999.99) > 0.5 {
		t.Errorf("HzToMel(1000) = %g, want ~1000", m)
	}
	if m := HzToMel(0); m != 0 {
		t.Errorf("HzToMel(0) = %g, want 0", m)
	}
}

func TestMelFilterBankShapes(t *testing.T) {
	const (
		nf         = 40
		fftSize    = 2048
		sampleRate = 44100.0
	)
	bank := NewMelFilterBank(nf, fftSize, sampleRate, 0, 8000)
	if bank.NumFilters != nf || len(bank.CenterHz) != nf {
		t.Fatalf("bad bank shape: %d filters, %d centers", bank.NumFilters, len(bank.CenterHz))
	}
	for i := 1; i < nf; i++ {
		if bank.CenterHz[i] <= bank.CenterHz[i-1] {
			t.Fatalf("centre frequencies not increasing at %d", i)
		}
	}
	// Mel spacing between centres should be near-constant.
	first := HzToMel(bank.CenterHz[1]) - HzToMel(bank.CenterHz[0])
	last := HzToMel(bank.CenterHz[nf-1]) - HzToMel(bank.CenterHz[nf-2])
	if math.Abs(first-last) > 0.01*first {
		t.Errorf("mel spacing drifts: first %g, last %g", first, last)
	}
}

func TestMelFilterBankLocalisesTone(t *testing.T) {
	const (
		nf         = 64
		fftSize    = 4096
		sampleRate = 44100.0
	)
	bank := NewMelFilterBank(nf, fftSize, sampleRate, 50, 8000)
	x := sine(1000, sampleRate, fftSize)
	energies := bank.ApplyInto(nil, PowerSpectrum(FFTReal(x)))
	best := 0
	for i, e := range energies {
		if e > energies[best] {
			best = i
		}
	}
	if math.Abs(bank.CenterHz[best]-1000) > 150 {
		t.Errorf("tone at 1000 Hz mapped to band centred at %g Hz", bank.CenterHz[best])
	}
}

func TestMelFilterBankClampsToNyquist(t *testing.T) {
	bank := NewMelFilterBank(10, 1024, 8000, 0, 100000)
	for _, c := range bank.CenterHz {
		if c > 4000 {
			t.Errorf("centre %g Hz above Nyquist", c)
		}
	}
}

func TestMelFilterBankPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero filters":  func() { NewMelFilterBank(0, 1024, 44100, 0, 8000) },
		"inverted band": func() { NewMelFilterBank(10, 1024, 44100, 5000, 100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMelApplyShortSpectrum(t *testing.T) {
	bank := NewMelFilterBank(8, 1024, 44100, 0, 8000)
	out := bank.ApplyInto(nil, []float64{1, 2, 3}) // shorter than half spectrum
	if len(out) != 8 {
		t.Fatalf("len = %d, want 8", len(out))
	}
}
