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

// ExtFailover demonstrates the paper's core motivation: when the data
// plane dies, in-band management messages die with it, but the sound
// channel keeps reporting. A switch streams queue telemetry both
// in-band (management packets over its uplink) and out-of-band
// (tones); the uplink is cut mid-run.
func ExtFailover() *Result {
	r := &Result{ID: "ext-failover", Title: "Management survives data-plane failure (Section 1 motivation)"}
	const (
		duration = 10.0
		cutAt    = 5.0
	)
	sim := netsim.NewSim()
	room := acoustic.NewRoom(44100, 101)
	mic := room.AddMicrophone("controller", acoustic.Position{}, 0.0005)

	// Topology: sw's uplink carries both data and in-band management
	// to the management host.
	mgmt := netsim.NewHost(sim, "mgmt", netsim.MustAddr("10.0.0.100"))
	sw := netsim.NewSwitch(sim, "s1")
	uplinkSw, _ := netsim.Connect(sim, sw, 1, mgmt, 1, 1e7, 0.0005, 100)
	sw.InstallRule(netsim.Rule{Priority: 1, Match: netsim.Match{Dst: mgmt.Addr}, Action: netsim.Output(1)})

	sp := room.AddSpeaker("s1", acoustic.Position{X: 1})
	voice := core.NewVoice(sim, mp.NewSounder(mp.NewPi(sim, sp, 0.002)))
	qm := core.NewQueueMonitorWithTones(sw, 1, voice, core.DefaultQueueFrequencies)
	ctrl := core.NewController(sim, mic, core.NewDetector(core.MethodGoertzel, qm.Frequencies()))
	ctrl.SubscribeWindows(qm.HandleWindow)
	ctrl.Start(0)

	// Every 300 ms the switch reports BOTH ways: an in-band
	// management packet and the queue tone (the tone loop is
	// StartSwitchSide; the in-band report is a packet up the link).
	mgmtFlow := netsim.FiveTuple{
		Src: netsim.MustAddr("10.0.0.1"), Dst: mgmt.Addr,
		SrcPort: 9, DstPort: 161, Proto: netsim.ProtoUDP,
	}
	qm.StartSwitchSide(sim, 0.05)
	var inbandSent int
	sim.Every(0.05, qm.SampleInterval, func(now float64) {
		inbandSent++
		// The switch originates the report itself: inject directly
		// into the uplink port.
		uplinkSw.Send(&netsim.Packet{ID: uint64(inbandSent), Flow: mgmtFlow, Size: 128, CreatedAt: now})
	})
	sim.After(cutAt, func() { uplinkSw.SetDown(true) })
	sim.RunUntil(duration)

	// In-band reports received before/after the cut.
	preInband := int(mgmt.RxPackets)
	// Tones heard after the cut.
	var preTones, postTones int
	for _, h := range qm.Heard {
		if h.Time < cutAt {
			preTones++
		} else {
			postTones++
		}
	}
	r.row("in-band management before the cut", "reports flow", preInband > 10,
		"%d reports delivered", preInband)
	// All post-cut in-band reports must be lost: mgmt.RxPackets stops
	// growing at the cut.
	expectedPre := int(cutAt/qm.SampleInterval) + 1
	r.row("in-band management after the cut", "silenced by the data-plane failure",
		preInband <= expectedPre, "stuck at %d (≈%d sent before cut, %d sent total)",
		preInband, expectedPre, inbandSent)
	r.row("sound channel before the cut", "tones heard", preTones > 10, "%d tones", preTones)
	r.row("sound channel after the cut", "keeps reporting", postTones > 10, "%d tones", postTones)

	var xs, ys []float64
	for _, h := range qm.Heard {
		xs = append(xs, h.Time)
		ys = append(ys, core.DefaultQueueFrequencies[h.Level])
	}
	r.addSeries("out-of-band tones (Hz) — uninterrupted by the t=5 s cut", xs, ys)
	r.note("uplink cut at t=%.0f s; %d queued in-band reports flushed", cutAt, uplinkSw.LostOnDown())
	return r
}

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
			at := 0.5 + float64(i)*0.5
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

// ExtCongestion closes the Section 6 loop: AIMD rate control driven
// purely by queue tones, compared against no control at identical
// offered load.
func ExtCongestion() *Result {
	r := &Result{ID: "ext-congestion", Title: "Sound-driven congestion control (Section 6, in place of ECN/DCTCP)"}
	run := func(withControl bool) (drops uint64, delivered uint64, finalRate float64, rateLog []netsim.Sample) {
		sim := netsim.NewSim()
		room := acoustic.NewRoom(44100, 130)
		mic := room.AddMicrophone("controller", acoustic.Position{}, 0.0005)
		h1 := netsim.NewHost(sim, "h1", netsim.MustAddr("10.0.0.1"))
		h2 := netsim.NewHost(sim, "h2", netsim.MustAddr("10.0.0.2"))
		sw := netsim.NewSwitch(sim, "s1")
		netsim.Connect(sim, h1, 1, sw, 1, 1e9, 0.0001, 0)
		egress, _ := netsim.Connect(sim, sw, 2, h2, 1, 1e6, 0.0001, 100)
		sw.InstallRule(netsim.Rule{Priority: 1, Match: netsim.Match{Dst: h2.Addr}, Action: netsim.Output(2)})
		sp := room.AddSpeaker("s1", acoustic.Position{X: 1})
		voice := core.NewVoice(sim, mp.NewSounder(mp.NewPi(sim, sp, 0.002)))
		qm := core.NewQueueMonitorWithTones(sw, 2, voice, core.DefaultQueueFrequencies)
		flow := netsim.FiveTuple{Src: h1.Addr, Dst: h2.Addr, SrcPort: 1, DstPort: 2, Proto: netsim.ProtoUDP}
		src := netsim.StartPaced(sim, h1, flow, 250, 1500, 0.2, 20)
		qm.StartSwitchSide(sim, 0.05)
		var cc *core.CongestionController
		if withControl {
			ctrl := core.NewController(sim, mic, core.NewDetector(core.MethodGoertzel, qm.Frequencies()))
			cc = core.NewCongestionController(qm, src)
			ctrl.SubscribeWindows(qm.HandleWindow)
			ctrl.SubscribeWindows(cc.HandleWindow)
			ctrl.Start(0)
		}
		sim.RunUntil(20)
		if cc != nil {
			rateLog = cc.RateLog
		}
		return egress.Out.Drops(), h2.RxPackets, src.Rate(), rateLog
	}

	dropsNone, delivNone, _, _ := run(false)
	dropsCtl, delivCtl, rate, rateLog := run(true)
	r.row("uncontrolled source overflows the queue", "drop-tail losses", dropsNone > 500,
		"%d drops, %d delivered", dropsNone, delivNone)
	r.row("tone-driven AIMD cuts losses", "ECN-like reaction without touching the transport",
		dropsCtl*2 < dropsNone, "%d drops (%.1fx fewer), %d delivered",
		dropsCtl, ratio(float64(dropsNone), float64(dropsCtl+1)), delivCtl)
	r.row("rate converges toward capacity", "AIMD sawtooth around ~83 pps",
		rate > 20 && rate < 150, "final rate %.0f pps", rate)
	goodputRatio := float64(delivCtl) / float64(delivNone)
	r.row("goodput preserved", "control does not starve the flow", goodputRatio > 0.85,
		"%.0f%% of uncontrolled goodput", goodputRatio*100)

	var xs, ys []float64
	for _, s := range rateLog {
		xs = append(xs, s.Time)
		ys = append(ys, s.Value)
	}
	r.addSeries("controlled send rate (pps) — AIMD sawtooth", xs, ys)
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
			freqs[i] = minHz + spacing*float64(i)
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

// ExtHeartbeat demonstrates out-of-band device liveness: switches
// beat their own tones; a dead device is noticed within a few missed
// beats, with no network path to it at all.
func ExtHeartbeat() *Result {
	r := &Result{ID: "ext-heartbeat", Title: "Out-of-band device liveness (heartbeat tones)"}
	sim := netsim.NewSim()
	room := acoustic.NewRoom(44100, 160)
	mic := room.AddMicrophone("controller", acoustic.Position{}, 0.0005)
	plan := core.DefaultPlan()

	hb := core.NewHeartbeat()
	mkVoice := func(name string, x float64) *core.Voice {
		sp := room.AddSpeaker(name, acoustic.Position{X: x})
		return core.NewVoice(sim, mp.NewSounder(mp.NewPi(sim, sp, 0.002)))
	}
	f1, err := hb.Register(plan, "s1", mkVoice("s1", 1))
	if err != nil {
		panic(err)
	}
	f2, err := hb.Register(plan, "s2", mkVoice("s2", -1.5))
	if err != nil {
		panic(err)
	}
	ctrl := core.NewController(sim, mic, core.NewDetector(core.MethodGoertzel, hb.Frequencies()))
	hb.Start(ctrl, 0)
	ctrl.Start(0)
	t1, err := hb.StartDevice(sim, f1, 0.2)
	if err != nil {
		panic(err)
	}
	if _, err := hb.StartDevice(sim, f2, 0.7); err != nil {
		panic(err)
	}
	const dieAt = 6.0
	sim.After(dieAt, t1.Stop)
	sim.RunUntil(15)

	r.row("live devices beat audibly", "one tone per device per period",
		hb.BeatsOf("s1") >= 4 && hb.BeatsOf("s2") >= 12,
		"s1: %d beats before death, s2: %d beats", hb.BeatsOf("s1"), hb.BeatsOf("s2"))
	r.row("dead device alerted", "silence noticed after the miss threshold",
		len(hb.Alerts) == 1 && hb.Alerts[0].Device == "s1",
		"%d alert(s): %+v", len(hb.Alerts), hb.Alerts)
	if len(hb.Alerts) == 1 {
		lag := hb.Alerts[0].Time - dieAt
		r.row("detection latency", "threshold x period",
			lag > 2 && lag < 5.5, "%.1f s after death (threshold %d x %.0f s)",
			lag, core.HeartbeatMissThreshold, hb.Period)
	}
	r.note("no packets are exchanged with the monitored devices at any point")
	return r
}
