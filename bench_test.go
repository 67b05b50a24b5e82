package mdn

// One testing.B benchmark per paper figure/claim (the same runners
// cmd/mdnbench uses), plus ablation benches for the design choices
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
import (
	"math"
	"math/bits"
	"runtime"
	"strconv"
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/audio"
	"mdn/internal/core"
	"mdn/internal/dsp"
	"mdn/internal/experiments"
	"mdn/internal/mp"
	"mdn/internal/netsim"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := e.Run(); !r.Pass() {
			b.Fatalf("%s failed shape checks", id)
		}
	}
}

func BenchmarkFig2aSwitchIdentification(b *testing.B) { benchExperiment(b, "fig2a") }
func BenchmarkFig2bFFTLatency(b *testing.B)           { benchExperiment(b, "fig2b") }
func BenchmarkFig3PortKnocking(b *testing.B)          { benchExperiment(b, "fig3") }
func BenchmarkFig4aHeavyHitter(b *testing.B)          { benchExperiment(b, "fig4a") }
func BenchmarkFig4bHeavyHitterNoisy(b *testing.B)     { benchExperiment(b, "fig4b") }
func BenchmarkFig4cPortScan(b *testing.B)             { benchExperiment(b, "fig4c") }
func BenchmarkFig4dPortScanNoisy(b *testing.B)        { benchExperiment(b, "fig4d") }
func BenchmarkFig5LoadBalancing(b *testing.B)         { benchExperiment(b, "fig5ab") }
func BenchmarkFig5QueueMonitoring(b *testing.B)       { benchExperiment(b, "fig5cd") }
func BenchmarkFig6FanSpectrograms(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkFig7FanFailureDetection(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkSec3FrequencySpacing(b *testing.B)      { benchExperiment(b, "sec3-spacing") }
func BenchmarkSec3ToneDuration(b *testing.B)          { benchExperiment(b, "sec3-duration") }
func BenchmarkSec5FrequencyCapacity(b *testing.B)     { benchExperiment(b, "sec5-capacity") }
func BenchmarkExtFailover(b *testing.B)               { benchExperiment(b, "ext-failover") }
func BenchmarkExtSuperspreader(b *testing.B)          { benchExperiment(b, "ext-superspreader") }
func BenchmarkExtRelay(b *testing.B)                  { benchExperiment(b, "ext-relay") }
func BenchmarkExtCongestion(b *testing.B)             { benchExperiment(b, "ext-congestion") }
func BenchmarkExtUltrasound(b *testing.B)             { benchExperiment(b, "ext-ultrasound") }
func BenchmarkExtMicArray(b *testing.B)               { benchExperiment(b, "ext-micarray") }
func BenchmarkExtFanAnomaly(b *testing.B)             { benchExperiment(b, "ext-fananomaly") }
func BenchmarkExtFanDistance(b *testing.B)            { benchExperiment(b, "ext-fandistance") }
func BenchmarkExtHeartbeat(b *testing.B)              { benchExperiment(b, "ext-heartbeat") }
func BenchmarkExtControlLatency(b *testing.B)         { benchExperiment(b, "ext-latency") }

// --- Ablation benches -------------------------------------------------

// detectionWindow synthesizes the standard 50 ms capture with three
// active tones for the detector ablations.
func detectionWindow() *audio.Buffer {
	return audio.Chord(44100,
		audio.Tone{Frequency: 520, Duration: 0.05, Amplitude: 0.02},
		audio.Tone{Frequency: 840, Duration: 0.05, Amplitude: 0.02},
		audio.Tone{Frequency: 1160, Duration: 0.05, Amplitude: 0.02},
	)
}

// BenchmarkAblationDetectorMethod compares the Goertzel bank against
// the full FFT across watch-list sizes — the crossover justifies the
// controller's method choice. The sizes bracket one AVX2 pass (24
// tones) and one AVX-512 pass (80) of the bank, and the modem's 130.
func BenchmarkAblationDetectorMethod(b *testing.B) {
	buf := detectionWindow()
	for _, n := range []int{3, 12, 24, 48, 64, 80, 130, 192} {
		watch := make([]float64, n)
		for i := range watch {
			watch[i] = 400 + 20*float64(i)
		}
		for _, m := range []core.Method{core.MethodGoertzel, core.MethodFFT} {
			det := core.NewDetector(m, watch)
			b.Run(m.String()+"-watch-"+strconv.Itoa(n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					det.Detect(buf, 0)
				}
			})
		}
	}
}

// BenchmarkAblationWindowFunction measures adjacent-tone leakage
// suppression cost: Hann vs rectangular analysis of the same block.
func BenchmarkAblationWindowFunction(b *testing.B) {
	buf := detectionWindow()
	for _, w := range []dsp.Window{dsp.Rectangular, dsp.Hann, dsp.Blackman} {
		b.Run(w.String(), func(b *testing.B) {
			work := make([]float64, buf.Len())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(work, buf.Samples)
				w.Apply(work)
				spec := dsp.FFTReal(work)
				_ = dsp.MagnitudesInto(nil, spec)
			}
		})
	}
}

// BenchmarkAblationWindowLength sweeps the controller's analysis
// window: shorter windows cut latency but lose frequency resolution.
func BenchmarkAblationWindowLength(b *testing.B) {
	for _, ms := range []int{25, 50, 100, 200} {
		dur := float64(ms) / 1000
		tone := audio.Tone{Frequency: 700, Duration: dur, Amplitude: 0.02}.Render(44100)
		det := core.NewDetector(core.MethodGoertzel, []float64{660, 680, 700, 720, 740})
		b.Run("window-"+strconv.Itoa(ms)+"ms", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				det.Detect(tone, 0)
			}
		})
	}
}

// busyRoom builds the capture benchmarks' room: ten voiced switches
// 1-3.7 m from the controller microphone, each played one tone at
// 0.1 s through its Pi, and a pop song, simulated to 0.5 s so every
// tone has been emitted.
func busyRoom() *acoustic.Microphone {
	sim := netsim.NewSim()
	room := acoustic.NewRoom(44100, 99)
	mic := room.AddMicrophone("controller", acoustic.Position{}, 0.0005)
	for i := 0; i < 10; i++ {
		sp := room.AddSpeaker("s"+strconv.Itoa(i), acoustic.Position{X: 1 + float64(i)*0.3})
		v := core.NewVoice(sim, mp.NewSounder(mp.NewPi(sim, sp, 0.002)))
		f := 400 + float64(i)*80
		sim.Schedule(0.1, func() { v.Play(f) })
	}
	room.AddNoise(core.PopSongNoise(44100, 2, 0.02, 5))
	sim.RunUntil(0.5)
	return mic
}

// BenchmarkAcousticCapture measures the cost of rendering one
// controller window from a busy room (10 emitters + noise).
func BenchmarkAcousticCapture(b *testing.B) {
	mic := busyRoom()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mic.Capture(0.1, 0.15)
	}
}

// BenchmarkCaptureInto is BenchmarkAcousticCapture on the reused-
// buffer path: the same busy room rendered with Microphone.CaptureInto
// feeding each call's return value into the next. The steady state
// must report 0 allocs/op.
func BenchmarkCaptureInto(b *testing.B) {
	mic := busyRoom()
	buf := mic.CaptureInto(nil, 0.1, 0.15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = mic.CaptureInto(buf, 0.1, 0.15)
	}
}

// toneMix returns the capture path's per-tone step: one 100 ms tone
// mixed into a window-long buffer, inside the tone so every block is a
// steady-state one.
func toneMix(window float64) func() {
	tone := audio.Tone{Frequency: 1234.5, Duration: 0.1, Amplitude: 0.3, Phase: 0.4}
	out := audio.NewBuffer(44100, window)
	return func() { tone.MixEnvelopeAt(out, -0.03, audio.DefaultEnvelope) }
}

// toneMixWindows are the 50 ms batch window and the 10 ms streaming hop.
var toneMixWindows = []struct {
	name   string
	window float64
}{{"window=50ms", 0.05}, {"hop=10ms", 0.01}}

// BenchmarkToneMix is the capture path's per-tone cost (see toneMix).
func BenchmarkToneMix(b *testing.B) {
	for _, c := range toneMixWindows {
		b.Run(c.name, func(b *testing.B) {
			mix := toneMix(c.window)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mix()
			}
		})
	}
}

// TestToneMixSteadyStateAllocs holds both BenchmarkToneMix rows to 0
// allocs per mix.
func TestToneMixSteadyStateAllocs(t *testing.T) {
	for _, c := range toneMixWindows {
		if allocs := testing.AllocsPerRun(100, toneMix(c.window)); allocs != 0 {
			t.Errorf("%s: tone mix allocates %v/op, want 0", c.name, allocs)
		}
	}
}

// BenchmarkCaptureCulled measures audibility culling on the capture
// path: a 256-speaker sparse room (10 m rack-row spacing) where the
// microphone can hear only the handful of emitters above its noise
// floor. The culled and full rows render the identical window; the
// culled row must stay 0 allocs/op, and the gap between them is the
// per-window saving the fleet path multiplies by the microphone
// count.
func BenchmarkCaptureCulled(b *testing.B) {
	for _, mode := range []struct {
		name string
		cull bool
	}{{"culled", true}, {"full", false}} {
		b.Run(mode.name, func(b *testing.B) {
			room := acoustic.NewRoom(44100, 99)
			if mode.cull {
				room.CullThreshold = acoustic.CullAuto
			}
			mic := room.AddMicrophone("controller", acoustic.Position{}, 0.0005)
			for i := 0; i < 256; i++ {
				sp := room.AddSpeaker("s"+strconv.Itoa(i),
					acoustic.Position{X: 10 * float64(i), Y: 1})
				sp.Play(0, audio.Tone{Frequency: 400 + 20*float64(i),
					Duration: 3600, Amplitude: acoustic.SPLToAmplitude(60)})
			}
			// Window at t=10 s: far enough in that every wavefront
			// (the farthest speaker is 2.55 km ≈ 7.4 s out) overlaps
			// it, so the full row really mixes all 256 emitters.
			buf := mic.CaptureInto(nil, 10.1, 10.15)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = mic.CaptureInto(buf, 10.1, 10.15)
			}
		})
	}
}

// fleetRoom builds the N-voice fleet world: one speaker per switch
// holding a sustained tone, one microphone per switch, and an FFT
// detector watching all N frequencies.
func fleetRoom(n int) ([]*acoustic.Microphone, *core.Detector) {
	room := acoustic.NewRoom(44100, 7)
	mics := make([]*acoustic.Microphone, n)
	freqs := make([]float64, n)
	for i := 0; i < n; i++ {
		name := "s" + strconv.Itoa(i)
		sp := room.AddSpeaker(name, acoustic.Position{X: 1 + 0.01*float64(i)})
		mics[i] = room.AddMicrophone("mic-"+name,
			acoustic.Position{Y: 0.1 * float64(i)}, 0.0005)
		freqs[i] = 400 + 20*float64(i)
		sp.Play(0, audio.Tone{Frequency: freqs[i], Duration: 3600,
			Amplitude: acoustic.SPLToAmplitude(60)})
	}
	return mics, core.NewDetector(core.MethodFFT, freqs)
}

// BenchmarkFleet drives the fleet engine: one 50 ms controller window
// fanned over N microphones by per-worker detector clones, serial
// versus a GOMAXPROCS pool, with detections merged deterministically.
// Every row must hold 0 allocs/op at steady state. The full 1–1024-voice scale suite — culled versus
// nocull on sparse placement — and the worker sweep live in
// internal/core (numbers in DESIGN.md §5f).
func BenchmarkFleet(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		mics, det := fleetRoom(n)
		for _, w := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", runtime.GOMAXPROCS(0)}} {
			b.Run("voices="+strconv.Itoa(n)+"/"+w.name, func(b *testing.B) {
				f := core.NewFleet(det, w.workers)
				defer f.Close()
				for _, m := range mics {
					f.AddMicrophone(m)
				}
				// Warm up clones, capture buffers and result slots so
				// the timed region measures the steady state.
				f.Analyse(0, 0.050)
				f.Analyse(0.050, 0.100)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					from := float64(2+i%1000) * 0.050
					f.Analyse(from, from+0.050)
				}
			})
		}
	}
}

// BenchmarkGoertzelSingleBin is the detector's hot inner loop.
func BenchmarkGoertzelSingleBin(b *testing.B) {
	buf := detectionWindow()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dsp.Goertzel(buf.Samples, 840, 44100)
	}
}

// BenchmarkMelSpectrogram measures the Figure 6-style analysis path.
func BenchmarkMelSpectrogram(b *testing.B) {
	fan := audio.DefaultFan(0.3, 1).Render(44100, 1)
	bank := dsp.NewMelFilterBank(64, 4096, 44100, 50, 8000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sg := dsp.STFT(fan.Samples, 44100, 4096, 2048, dsp.Hann)
		_ = sg.Mel(bank)
	}
}

// sincosFFT is the pre-plan transform (per-butterfly math.Sincos, no
// cached permutation), kept as the ablation baseline for
// BenchmarkAblationPlannedFFT.
func sincosFFT(x []complex128) {
	n := len(x)
	if n < 2 {
		return
	}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := -2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				s, c := math.Sincos(step * float64(k))
				w := complex(c, s)
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// BenchmarkAblationPlannedFFT compares the planned transform (twiddle
// table + cached bit reversal) with the unplanned per-butterfly
// Sincos baseline it replaced, at the controller's 50 ms window size.
func BenchmarkAblationPlannedFFT(b *testing.B) {
	const n = 4096
	src := detectionWindow().Samples
	work := make([]complex128, n)
	fill := func() {
		for i := range work {
			work[i] = 0
		}
		for i, v := range src {
			work[i] = complex(v, 0)
		}
	}
	b.Run("unplanned-sincos", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fill()
			sincosFFT(work)
		}
	})
	b.Run("planned", func(b *testing.B) {
		p := dsp.PlanFFT(n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fill()
			p.Transform(work)
		}
	})
}

// BenchmarkAblationPackedReal compares promoting a real block to
// complex and running the full-size transform against the packed
// real-input transform (N/2 butterflies), both on the cached plan.
func BenchmarkAblationPackedReal(b *testing.B) {
	const n = 4096
	src := detectionWindow().Samples // 2205 samples, zero-padded
	p := dsp.PlanFFT(n)
	b.Run("promote-complex", func(b *testing.B) {
		work := make([]complex128, n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := range work {
				work[k] = 0
			}
			for k, v := range src {
				work[k] = complex(v, 0)
			}
			p.Transform(work)
		}
	})
	b.Run("packed-real", func(b *testing.B) {
		var spec []complex128
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spec = p.RealSpectrumInto(spec, src)
		}
	})
}

// BenchmarkPlannedWindowedSpectrum measures the controller's per-window
// FFT front end on the planned API with a reused destination: the
// steady state must report 0 allocs/op.
func BenchmarkPlannedWindowedSpectrum(b *testing.B) {
	buf := detectionWindow()
	plan := dsp.PlanFFT(dsp.NextPowerOfTwo(buf.Len()))
	var mags []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mags = plan.WindowedSpectrumInto(mags, buf.Samples, dsp.Hann)
	}
}

// BenchmarkPlannedGoertzelBank measures the planned bank (the
// Goertzel detector's steady state) from a handful of tones up to the
// modem's 130-tone FSK band: 0 allocs/op.
func BenchmarkPlannedGoertzelBank(b *testing.B) {
	buf := detectionWindow()
	for _, n := range []int{3, 12, 48, 130} {
		watch := make([]float64, n)
		for i := range watch {
			watch[i] = 400 + 20*float64(i)
		}
		gp := dsp.NewGoertzelPlan(watch, 44100)
		b.Run("watch-"+strconv.Itoa(n), func(b *testing.B) {
			var mags []float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mags = gp.MagnitudesInto(mags, buf.Samples)
			}
		})
	}
}

// BenchmarkAblationSTFTParallel compares the serial planned STFT with
// the goroutine fan-out across worker counts (the Figure 6 mel path).
func BenchmarkAblationSTFTParallel(b *testing.B) {
	fan := audio.DefaultFan(0.3, 1).Render(44100, 2)
	for _, workers := range []int{1, 2, 4, 0} {
		name := "workers-" + strconv.Itoa(workers)
		if workers == 0 {
			name = "workers-gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = dsp.STFTParallel(fan.Samples, 44100, 4096, 2048, dsp.Hann, workers)
			}
		})
	}
}
