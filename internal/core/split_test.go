package core

import (
	"math"
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/audio"
)

// splitBank is an n-tone watch list on the fleet's 40 Hz grid from
// 500 Hz, the grid fleetRoom plays on.
func splitBank(n int) []float64 {
	freqs := make([]float64, n)
	for i := range freqs {
		freqs[i] = 500 + 40*float64(i)
	}
	return freqs
}

// splitRoom is a lone noisy microphone hearing three of the bank's
// tones, with a self-noise ramp and a sensitivity ramp that cross the
// analysed windows, so the split noise bands run both the steady and
// the per-sample level paths.
func splitRoom() *acoustic.Microphone {
	room := acoustic.NewRoom(44100, 11)
	mic := room.AddMicrophone("lone", acoustic.Position{}, 0.0005)
	sp := room.AddSpeaker("s", acoustic.Position{X: 1})
	for i, f := range []float64{500, 1500, 4100} {
		sp.Play(0.01+0.03*float64(i), audio.Tone{Frequency: f, Duration: 0.12, Amplitude: acoustic.SPLToAmplitude(60)})
	}
	mic.ScheduleNoiseRamp(0.07, 0.17, 0.004)
	mic.ScheduleSensitivityRamp(0.09, 0.19, 0.3)
	return mic
}

// splitWindows analyses a lone microphone's batch windows and then its
// 10 ms stream hops through a fleet of the given workers, and returns
// every window's detections and pre-threshold amplitudes, copied.
func splitWindows(method Method, tones, workers int) ([][]Detection, [][]float64) {
	f := NewFleet(NewDetector(method, splitBank(tones)), workers)
	defer f.Close()
	f.AddMicrophone(splitRoom())
	var dets [][]Detection
	var amps [][]float64
	note := func(d []Detection) {
		dets = append(dets, append([]Detection(nil), d...))
		amps = append(amps, append([]float64(nil), f.amps[0]...))
	}
	for w := 0; w < 6; w++ {
		from := 0.05 * float64(w)
		note(f.Analyse(from, from+0.05))
	}
	f.setHop(0.05, 2205, 441)
	for h := 1; h <= 30; h++ {
		d, _, _ := f.analyse(0.01*float64(h-1), 0.01*float64(h))
		note(d)
	}
	return dets, amps
}

// TestFleetSplitLoneMicByteIdentical: a lone microphone's windows,
// batch and streamed, give the same detections and amplitudes bit for
// bit at 1, 2 and 4 workers, over banks on each side of every pass
// boundary (24/25 tones: the AVX2 block and the AVX-512 kernel; 80/81:
// one and two AVX-512 passes; 130 and 241: two and four) and with the
// FFT detector, which never splits.
func TestFleetSplitLoneMicByteIdentical(t *testing.T) {
	type bank struct {
		method Method
		tones  int
	}
	banks := []bank{{MethodFFT, 130}}
	for _, n := range []int{24, 25, 80, 81, 130, 241} {
		banks = append(banks, bank{MethodGoertzel, n})
	}
	for _, b := range banks {
		wantDets, wantAmps := splitWindows(b.method, b.tones, 1)
		heard := 0
		for _, d := range wantDets {
			heard += len(d)
		}
		if heard == 0 {
			t.Fatalf("%v, %d tones: the serial fleet heard nothing", b.method, b.tones)
		}
		for _, workers := range []int{2, 4} {
			gotDets, gotAmps := splitWindows(b.method, b.tones, workers)
			for w := range wantDets {
				if !sameDetections(gotDets[w], wantDets[w]) || !sameBits(gotAmps[w], wantAmps[w]) {
					t.Fatalf("%v, %d tones, %d workers, window %d: detections %v amplitudes %v, want %v %v",
						b.method, b.tones, workers, w, gotDets[w], gotAmps[w], wantDets[w], wantAmps[w])
				}
			}
		}
	}
}

func sameDetections(a, b []Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Time != b[i].Time || a[i].Frequency != b[i].Frequency ||
			math.Float64bits(a[i].Amplitude) != math.Float64bits(b[i].Amplitude) {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFleetSplitWindowAllocs: once warm, a split lone-microphone
// window, batch and streamed, allocates nothing.
func TestFleetSplitWindowAllocs(t *testing.T) {
	f := NewFleet(NewDetector(MethodGoertzel, splitBank(130)), 2)
	defer f.Close()
	f.AddMicrophone(splitRoom())
	from := 0.0
	next := func() {
		f.Analyse(from, from+0.05)
		from += 0.05
	}
	next()
	next()
	if f.workers > 1 && f.passes == 0 {
		t.Fatal("a lone microphone's 130-tone window was not split")
	}
	if allocs := testing.AllocsPerRun(50, next); allocs != 0 {
		t.Errorf("a split batch window allocates %.1f objects, want 0", allocs)
	}
	f.setHop(0.05, 2205, 441)
	hop := func() {
		f.analyse(from, from+0.01)
		from += 0.01
	}
	for h := 0; h < 6; h++ {
		hop()
	}
	if allocs := testing.AllocsPerRun(50, hop); allocs != 0 {
		t.Errorf("a split stream hop allocates %.1f objects, want 0", allocs)
	}
}

// BenchmarkFleetLoneMic times a lone microphone's 130-tone batch
// window, whole at one worker and split at two.
func BenchmarkFleetLoneMic(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(itoa(workers), func(b *testing.B) {
			f := NewFleet(NewDetector(MethodGoertzel, splitBank(130)), workers)
			defer f.Close()
			f.AddMicrophone(splitRoom())
			from := 0.0
			for i := 0; i < b.N; i++ {
				f.Analyse(from, from+0.05)
				from += 0.05
			}
		})
	}
}
