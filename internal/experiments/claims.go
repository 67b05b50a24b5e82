package experiments

import (
	"fmt"
	"math/rand"

	"mdn/internal/audio"
	"mdn/internal/core"
)

// Sec3Spacing reproduces the Section 3 claim that "a distance of
// approximately 20 Hz between frequencies is needed to accurately
// differentiate them". For each candidate spacing we run trials at
// random base frequencies: (a) a lone tone must be identified without
// waking its neighbour's detector, and (b) two simultaneous tones at
// that spacing must both be identified. Accuracy collapses below
// ~20 Hz and is high at and above it.
func Sec3Spacing() *Result {
	r := &Result{ID: "sec3-spacing", Title: "Frequency spacing needed for identification"}
	const (
		sampleRate = 44100.0
		windowDur  = 0.100 // full-window tones, as in the paper's probe
		trials     = 20
	)
	spacings := []float64{5, 10, 20, 40, 80}
	rng := rand.New(rand.NewSource(31))
	var xs, ys []float64
	accuracy := make(map[float64]float64, len(spacings))
	for _, spacing := range spacings {
		correct := 0
		for trial := 0; trial < trials; trial++ {
			base := 600 + float64(rng.Float64()*2000)
			watch := []float64{base, base + spacing}
			det := core.NewDetector(core.MethodGoertzel, watch)

			// (a) lone tone at base: only base may fire.
			lone := audio.Tone{Frequency: base, Duration: windowDur, Amplitude: 0.03}.Render(sampleRate)
			la := det.Detect(lone, 0)
			okLone := len(la) == 1 && la[0].Frequency == base

			// (b) both tones together: both must fire.
			pair := audio.Chord(sampleRate,
				audio.Tone{Frequency: base, Duration: windowDur, Amplitude: 0.03},
				audio.Tone{Frequency: base + spacing, Duration: windowDur, Amplitude: 0.03, Phase: 1.3},
			)
			pa := det.Detect(pair, 0)
			okPair := len(pa) == 2

			if okLone && okPair {
				correct++
			}
		}
		acc := float64(correct) / trials
		accuracy[spacing] = acc
		xs = append(xs, spacing)
		ys = append(ys, acc)
	}
	r.row("accuracy at 20 Hz spacing", "reliable differentiation", accuracy[20] >= 0.9,
		"%.0f%%", accuracy[20]*100)
	r.row("accuracy below 20 Hz degrades", "tones indistinguishable", accuracy[5] < accuracy[20],
		"5 Hz: %.0f%%, 10 Hz: %.0f%%", accuracy[5]*100, accuracy[10]*100)
	r.row("wider spacing stays reliable", "no regression", accuracy[40] >= 0.9 && accuracy[80] >= 0.9,
		"40 Hz: %.0f%%, 80 Hz: %.0f%%", accuracy[40]*100, accuracy[80]*100)
	r.addSeries("identification accuracy vs spacing (Hz)", xs, ys)
	return r
}

// Sec3Duration reproduces the Section 3 claim that the shortest
// usable tone is approximately 30 ms. Short tones smear spectrally: in
// a 50 ms analysis window a sub-30 ms tone excites its guard-banded
// neighbours almost as strongly as itself, making identification
// ambiguous, while tones of 30 ms and up identify cleanly.
func Sec3Duration() *Result {
	r := &Result{ID: "sec3-duration", Title: "Shortest usable tone duration"}
	const (
		sampleRate = 44100.0
		windowDur  = 0.050
		trials     = 20
	)
	durations := []float64{0.005, 0.010, 0.020, 0.030, 0.050, 0.100}
	rng := rand.New(rand.NewSource(41))
	var xs, ys []float64
	acc := make(map[float64]float64, len(durations))
	for _, dur := range durations {
		correct := 0
		for trial := 0; trial < trials; trial++ {
			base := 800 + float64(rng.Float64()*2000)
			// Guard-banded neighbours, as applications allocate them.
			watch := []float64{base - 160, base - 80, base, base + 80, base + 160}
			det := core.NewDetector(core.MethodGoertzel, watch)
			span := windowDur
			if dur > span {
				span = dur
			}
			buf := audio.NewBuffer(sampleRate, span)
			tone := audio.Tone{Frequency: base, Duration: dur, Amplitude: 0.03}
			buf.MixAt(tone.Render(sampleRate), 0, 1)
			got := det.Detect(buf, 0)
			if len(got) == 1 && got[0].Frequency == base {
				correct++
			}
		}
		a := float64(correct) / trials
		acc[dur] = a
		xs = append(xs, dur*1000)
		ys = append(ys, a)
	}
	r.row("30 ms tones identify unambiguously", "shortest generated tone ~30 ms works",
		acc[0.030] >= 0.9, "%.0f%%", acc[0.030]*100)
	r.row("much shorter tones become ambiguous", "unusable below the floor",
		acc[0.005] < 0.5 && acc[0.010] < acc[0.030], "5 ms: %.0f%%, 10 ms: %.0f%%",
		acc[0.005]*100, acc[0.010]*100)
	r.row("longer tones stay clean", "no regression", acc[0.050] >= 0.9 && acc[0.100] >= 0.9,
		"50 ms: %.0f%%, 100 ms: %.0f%%", acc[0.050]*100, acc[0.100]*100)
	r.addSeries("unambiguous identification vs tone duration (ms)", xs, ys)
	return r
}

// Sec5Capacity reproduces the Section 5 claim that roughly 1000
// distinct frequencies can be distinguished when played
// simultaneously within the human-hearable range. We synthesize N
// concurrent 20 Hz-spaced tones and count how many the FFT detector
// recovers.
func Sec5Capacity() *Result {
	r := &Result{ID: "sec5-capacity", Title: "Simultaneous distinguishable frequencies"}
	const (
		sampleRate = 44100.0
		dur        = 0.200 // 5 Hz resolution: plenty for 20 Hz spacing
		amplitude  = 0.01
	)
	counts := []int{100, 250, 500, 1000}
	rng := rand.New(rand.NewSource(51))
	var xs, ys []float64
	recovered := make(map[int]float64, len(counts))
	for _, n := range counts {
		freqs := make([]float64, n)
		for i := range freqs {
			freqs[i] = 300 + float64(20*float64(i))
		}
		buf := audio.NewBuffer(sampleRate, dur)
		for _, f := range freqs {
			t := audio.Tone{Frequency: f, Duration: dur, Amplitude: amplitude, Phase: rng.Float64() * 6.28}
			buf.MixAt(t.Render(sampleRate), 0, 1)
		}
		det := core.NewDetector(core.MethodFFT, freqs)
		det.ToleranceHz = 5
		det.RelativeFloor = 0.05 // equal-amplitude tones; leakage is low at 20 Hz with 5 Hz bins
		got := det.Detect(buf, 0)
		frac := float64(len(got)) / float64(n)
		recovered[n] = frac
		xs = append(xs, float64(n))
		ys = append(ys, frac)
	}
	r.row("1000 simultaneous frequencies recoverable", "~1000 distinct frequencies feasible",
		recovered[1000] >= 0.95, "%.1f%% of 1000 detected", recovered[1000]*100)
	for _, n := range []int{100, 250, 500} {
		r.row(fmt.Sprintf("%d simultaneous frequencies", n), "all detected",
			recovered[n] >= 0.99, "%.1f%%", recovered[n]*100)
	}
	r.addSeries("fraction recovered vs concurrent tone count", xs, ys)
	return r
}
