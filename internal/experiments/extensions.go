package experiments

import (
	"math/rand"

	"mdn/internal/acoustic"
	"mdn/internal/audio"
	"mdn/internal/core"
	"mdn/internal/mp"
	"mdn/internal/netsim"
)

// Extensions reproduce what the paper motivates or leaves open rather
// than evaluates: the Section 1 motivation (out-of-band management
// survives data-plane failure), the Section 5 open problem
// (k-superspreaders / DDoS victims), and the Section 8 research
// directions (multi-hop relays, ultrasound capacity, microphone
// arrays), plus closing the Section 6 loop with sound-driven
// congestion control.

// ExtRelay answers the Section 8 open question about multi-hop sound
// transmission: a switch too far (and too quiet) for the controller
// is heard through a frequency-translating acoustic relay.
func ExtRelay() *Result {
	r := &Result{ID: "ext-relay", Title: "Multi-hop sound relay (Section 8 open question)"}
	run := func(withRelay bool) (direct, relayed int, relayCount uint64) {
		sim := netsim.NewSim()
		room := acoustic.NewRoom(44100, 120)
		ctrlMic := room.AddMicrophone("controller", acoustic.Position{}, 0.0005)

		srcSp := room.AddSpeaker("far-switch", acoustic.Position{X: 10})
		srcVoice := core.NewVoice(sim, mp.NewSounder(mp.NewPi(sim, srcSp, 0.002)))
		srcVoice.Intensity = 40
		srcVoice.ToneDuration = 0.12
		const inFreq, outFreq = 600.0, 1000.0

		relayMic := room.AddMicrophone("relay-mic", acoustic.Position{X: 8}, 0.0001)
		relaySp := room.AddSpeaker("relay-spk", acoustic.Position{X: 2})
		relay, err := core.NewRelay(sim, relayMic, mp.NewPi(sim, relaySp, 0.002),
			map[float64]float64{inFreq: outFreq})
		if err != nil {
			panic(err)
		}
		relay.Detector().MinAmplitude = 1e-3

		det := core.NewDetector(core.MethodGoertzel, []float64{inFreq, outFreq})
		det.MinAmplitude = 1e-3
		ctrl := core.NewController(sim, ctrlMic, det)
		onset := core.NewOnsetFilter()
		ctrl.SubscribeWindows(func(_ float64, dets []core.Detection) {
			for _, d := range onset.Step(dets) {
				switch d.Frequency {
				case inFreq:
					direct++
				case outFreq:
					relayed++
				}
			}
		})
		if withRelay {
			relay.Start(0)
		}
		ctrl.Start(0)
		for i := 0; i < 5; i++ {
			at := 0.5 + float64(float64(i)*0.5)
			sim.Schedule(at, func() { srcVoice.Play(inFreq) })
		}
		sim.RunUntil(4)
		return direct, relayed, relay.Relayed
	}

	d0, r0, _ := run(false)
	d1, r1, hops := run(true)
	r.row("direct path out of range", "10 m at 40 dB is below the floor", d0 == 0 && d1 == 0,
		"direct detections: %d without relay, %d with", d0, d1)
	r.row("without relay: nothing heard", "single-hop limit", r0 == 0, "%d tones", r0)
	r.row("with relay: all tones delivered", "multi-hop works", r1 == 5 && hops == 5,
		"%d of 5 tones relayed and heard", r1)
	r.note("relay adds one detection window (~50 ms) of latency per hop")
	return r
}

// ExtUltrasound quantifies the Section 8 direction "including
// frequencies outside the spectrum of human hearing": at a 96 kHz
// capture rate the usable band roughly doubles, and the detector
// recovers ~2000 concurrent tones.
func ExtUltrasound() *Result {
	r := &Result{ID: "ext-ultrasound", Title: "Ultrasound extension (Section 8): capacity beyond human hearing"}
	const (
		spacing = 20.0
		amp     = 0.008
		dur     = 0.200
	)
	rng := rand.New(rand.NewSource(140))
	run := func(sampleRate, minHz, maxHz float64) (n int, recovered float64) {
		n = int((maxHz - minHz) / spacing)
		freqs := make([]float64, n)
		for i := range freqs {
			freqs[i] = minHz + float64(spacing*float64(i))
		}
		buf := audio.NewBuffer(sampleRate, dur)
		for _, f := range freqs {
			tone := audio.Tone{Frequency: f, Duration: dur, Amplitude: amp, Phase: rng.Float64() * 6.28}
			buf.MixAt(tone.Render(sampleRate), 0, 1)
		}
		det := core.NewDetector(core.MethodFFT, freqs)
		det.ToleranceHz = 5
		det.RelativeFloor = 0.05
		got := det.Detect(buf, 0)
		return n, float64(len(got)) / float64(n)
	}

	nAudible, fracAudible := run(44100, 300, 20000)
	nUltra, fracUltra := run(96000, 300, 40000)
	r.row("audible band capacity (44.1 kHz capture)", "~1000 frequencies", nAudible >= 900 && fracAudible >= 0.95,
		"%d tones, %.1f%% recovered", nAudible, fracAudible*100)
	r.row("with ultrasound (96 kHz capture)", "more discernible sounds, more scalable operations",
		nUltra >= 1900 && fracUltra >= 0.95, "%d tones, %.1f%% recovered", nUltra, fracUltra*100)
	r.row("capacity roughly doubles", "band doubles", float64(nUltra) > 1.8*float64(nAudible),
		"%d vs %d slots", nUltra, nAudible)

	// The physical catch: atmospheric absorption trades range for the
	// extra capacity. A 60 dB tone at 20 m through absorbing air.
	received := func(freq float64) float64 {
		room := acoustic.NewRoom(96000, 141)
		room.AirAbsorption = true
		mic := room.AddMicrophone("m", acoustic.Position{}, 0)
		room.AddSpeaker("s", acoustic.Position{X: 20}).Play(0, audio.Tone{
			Frequency: freq, Duration: 0.3, Amplitude: acoustic.SPLToAmplitude(60)})
		return mic.Capture(0.1, 0.25).RMS()
	}
	lowRMS := received(2000)
	highRMS := received(35000)
	r.row("ultrasound trades range for capacity", "air absorption rises steeply with frequency",
		highRMS < lowRMS/5, "at 20 m a 35 kHz tone arrives %.0fx weaker than 2 kHz (%.1e vs %.1e)",
		lowRMS/highRMS, highRMS, lowRMS)
	r.note("absorption model: ISO 9613-1 power-law fit, ~0.01 dB/m at 1 kHz, ~1.2 dB/m at 40 kHz")
	return r
}

// ExtMicArray demonstrates the Section 8 direction "coordinate an
// array of microphones listening to different groups of switches":
// two zones reuse one frequency, and each tone is attributed to its
// zone by nearest-microphone amplitude.
func ExtMicArray() *Result {
	r := &Result{ID: "ext-micarray", Title: "Microphone array zoning (Section 8 direction)"}
	sim := netsim.NewSim()
	room := acoustic.NewRoom(44100, 150)
	micA := room.AddMicrophone("mic-zone-a", acoustic.Position{X: -4}, 0.0003)
	micB := room.AddMicrophone("mic-zone-b", acoustic.Position{X: 4}, 0.0003)
	spA := room.AddSpeaker("switch-a", acoustic.Position{X: -4.5})
	spB := room.AddSpeaker("switch-b", acoustic.Position{X: 4.5})
	vA := core.NewVoice(sim, mp.NewSounder(mp.NewPi(sim, spA, 0.002)))
	vB := core.NewVoice(sim, mp.NewSounder(mp.NewPi(sim, spB, 0.002)))
	const shared = 700.0

	// One plain controller per zone microphone records the 700 Hz
	// amplitude it hears, by window start; both poll the same window
	// grid.
	heard := make(map[float64][2]float64)
	for z, mic := range []*acoustic.Microphone{micA, micB} {
		ctrl := core.NewController(sim, mic, core.NewDetector(core.MethodGoertzel, []float64{shared}))
		ctrl.SubscribeWindows(func(start float64, dets []core.Detection) {
			for _, d := range dets {
				amps := heard[start]
				amps[z] = d.Amplitude
				heard[start] = amps
			}
		})
		ctrl.Start(0)
	}
	sim.Schedule(0.5, func() { vA.Play(shared) })
	sim.Schedule(1.5, func() { vB.Play(shared) })
	sim.RunUntil(2.5)

	// Each heard window goes to the louder microphone: amplitude falls
	// as 1/r, so that is the one nearest the emitter.
	var fromA, fromB, wrong int
	for start, amps := range heard {
		switch {
		case start < 1.0 && amps[0] > amps[1]:
			fromA++
		case start >= 1.0 && amps[1] > amps[0]:
			fromB++
		default:
			wrong++
		}
	}

	r.row("zone A tone attributed to zone A's microphone", "nearest mic wins", fromA > 0,
		"%d windows", fromA)
	r.row("zone B tone attributed to zone B's microphone", "nearest mic wins", fromB > 0,
		"%d windows", fromB)
	r.row("no misattributions", "frequency reuse across zones is safe", wrong == 0,
		"%d wrong", wrong)
	r.note("both switches share the SAME 700 Hz tone; a single microphone could not tell them apart")
	return r
}
