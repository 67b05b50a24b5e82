package scenario

import (
	"fmt"
	"math"
	"strings"

	"mdn/internal/acoustic"
	"mdn/internal/core"
	"mdn/internal/mp"
	"mdn/internal/netsim"
	"mdn/internal/openflow"
	"mdn/internal/telemetry"
)

// Chaos is the supervised runtime's proving ground: it runs full
// end-to-end MDN pipelines — knock → FSM → flow install, heavy-hitter
// telemetry, congestion-driven load balancing, and heartbeat liveness —
// under a sweep of injected wire-fault rates, and reports each point's
// recall, health verdict, recovered panics, and retry counters. The
// paper's Section 7 asks how the acoustic channel behaves as conditions
// worsen; the harness answers the control-plane half: detection decays
// gracefully (recall falls, nothing crashes) and the controller's
// Health snapshot names the degradation.
//
// Every run is seeded; the same ChaosConfig produces a byte-identical
// ChaosReport, so sweeps are replayable evidence, not anecdotes.

// ChaosScenarioNames are the pipelines the harness can run.
var ChaosScenarioNames = []string{"portknock", "heavyhitter", "loadbalance", "heartbeat", "devicehealth", "modem"}

// ChaosConfig parameterises a chaos sweep.
type ChaosConfig struct {
	// Seed drives every stochastic component; per-point fault streams
	// derive from it.
	Seed int64 `json:"seed"`
	// DropRates are the message-drop probabilities to sweep
	// (default 0, 0.1, 0.3, 0.5).
	DropRates []float64 `json:"drop_rates,omitempty"`
	// DurationS is the simulated length of each point: finite and
	// non-negative, 0 meaning the default 30.
	DurationS float64 `json:"duration_s,omitempty"`
	// Scenarios selects pipelines (default all of ChaosScenarioNames).
	Scenarios []string `json:"scenarios,omitempty"`
	// StreamHop, when positive, runs every pipeline on the streaming
	// detection path with this hop in seconds (see
	// core.Controller.StartStream) instead of the batch window loop.
	// StreamHop == 0.05 (the full window) is the equivalence setting:
	// it reproduces the batch report byte-identically.
	StreamHop float64 `json:"stream_hop,omitempty"`
	// Workers bounds the sweep's worker pool (<= 0 means GOMAXPROCS, 1
	// forces the serial sweep). The report is byte-identical at every
	// worker count.
	Workers int `json:"workers,omitempty"`
}

// ChaosPoint is one (scenario, drop rate) measurement.
type ChaosPoint struct {
	// Scenario names the pipeline.
	Scenario string `json:"scenario"`
	// DropRate is the injected message-drop probability.
	DropRate float64 `json:"drop_rate"`
	// GroundTruth counts the events the pipeline was offered;
	// Detected counts those it acted on; Recall is their ratio.
	GroundTruth int     `json:"ground_truth"`
	Detected    int     `json:"detected"`
	Recall      float64 `json:"recall"`
	// Health is the controller's end-of-run verdict; Reasons explains
	// a non-healthy one.
	Health  string   `json:"health"`
	Reasons []string `json:"reasons,omitempty"`
	// RecoveredPanics counts subscriber panics the supervisor absorbed
	// (the canary handler contributes two per run); Quarantined counts
	// circuit-broken subscribers.
	RecoveredPanics uint64 `json:"recovered_panics"`
	Quarantined     int    `json:"quarantined"`
	// Wire counters aggregate the acoustic and OpenFlow control hops.
	WireSent      uint64 `json:"wire_sent"`
	WireDropped   uint64 `json:"wire_dropped"`
	WireCorrupted uint64 `json:"wire_corrupted"`
	// Flow-programming counters (zero for pipelines that install no
	// rules).
	FlowAttempts uint64 `json:"flow_attempts,omitempty"`
	FlowRetries  uint64 `json:"flow_retries,omitempty"`
	FlowFailures uint64 `json:"flow_failures,omitempty"`
	// Notes carries scenario-specific outcomes (rule installed,
	// alerts raised).
	Notes string `json:"notes,omitempty"`
	// Devices is the device-health monitor's end-of-run snapshot (set
	// only by the devicehealth scenario): per-device state, noise
	// floors, and the transition / recalibration / quarantine / rejoin
	// / re-key counts. Every field is a deterministic function of the
	// simulated run, so the sweep's byte-identity contract holds.
	Devices []core.DeviceHealth `json:"devices,omitempty"`
}

// ChaosReport is a full sweep.
type ChaosReport struct {
	Seed      int64        `json:"seed"`
	DurationS float64      `json:"duration_s"`
	Points    []ChaosPoint `json:"points"`
}

// RunChaos executes the (scenario × drop rate) grid on the sweep
// runner and returns its report. Every point records its telemetry
// into reg (nil runs unmetered); the registry's get-or-create series
// accumulate across the whole sweep, and stay out of the report
// because its wall-clock histograms vary run to run.
func RunChaos(cfg ChaosConfig, reg *telemetry.Registry) (*ChaosReport, error) {
	drops := cfg.DropRates
	if len(drops) == 0 {
		drops = []float64{0, 0.1, 0.3, 0.5}
	}
	dur := cfg.DurationS
	if dur < 0 || math.IsNaN(dur) || math.IsInf(dur, 0) {
		return nil, fmt.Errorf("scenario: chaos duration %g must be finite and non-negative", dur)
	}
	if dur == 0 {
		dur = 30
	}
	names := cfg.Scenarios
	if len(names) == 0 {
		names = ChaosScenarioNames
	}
	// Validate the whole grid before any point runs: a bad cell must
	// fail the sweep up front, not mid-flight with half the pool busy.
	runs := make([]chaosRun, len(names))
	for i, name := range names {
		run, ok := chaosScenarios[name]
		if !ok {
			return nil, fmt.Errorf("scenario: unknown chaos scenario %q (have %s)",
				name, strings.Join(ChaosScenarioNames, ", "))
		}
		runs[i] = run
	}
	for _, rate := range drops {
		if !(rate >= 0 && rate <= 1) { // also rejects NaN
			return nil, fmt.Errorf("scenario: chaos drop rate %g outside [0, 1]", rate)
		}
	}
	if cfg.StreamHop > 0 {
		if err := core.CheckStreamHop(core.DefaultWindow, 44100, cfg.StreamHop); err != nil {
			return nil, fmt.Errorf("scenario: stream_hop: %w", err)
		}
	}
	pts, err := sweep(cfg.Seed, cfg.Workers, len(names), len(drops), func(r, c int, seed int64) ChaosPoint {
		pt := runs[r](reg, netsim.Faults{DropProb: drops[c], Seed: seed}, dur, cfg.StreamHop)
		pt.Scenario = names[r]
		pt.DropRate = drops[c]
		if pt.GroundTruth > 0 {
			pt.Recall = float64(pt.Detected) / float64(pt.GroundTruth)
		}
		return pt
	})
	if err != nil {
		return nil, err
	}
	return &ChaosReport{Seed: cfg.Seed, DurationS: dur, Points: pts}, nil
}

// Table renders the sweep as a fixed-width degradation table.
func (r *ChaosReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos sweep: seed=%d duration=%.0fs\n", r.Seed, r.DurationS)
	fmt.Fprintf(&b, "%-12s %5s  %6s %9s  %-8s %7s %5s  %-s\n",
		"scenario", "drop", "recall", "truth/det", "health", "panics", "quar", "notes")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-12s %4.0f%%  %5.0f%% %5d/%-3d  %-8s %7d %5d  %s\n",
			p.Scenario, 100*p.DropRate, 100*p.Recall, p.GroundTruth, p.Detected,
			p.Health, p.RecoveredPanics, p.Quarantined, p.Notes)
	}
	return b.String()
}

// chaosRun measures one pipeline under one fault setting, recording
// its telemetry into the sweep's shared registry. streamHop > 0 runs
// the pipeline on the streaming detection path with that hop.
type chaosRun func(reg *telemetry.Registry, faults netsim.Faults, dur, streamHop float64) ChaosPoint

var chaosScenarios = map[string]chaosRun{
	"portknock":    chaosPortKnock,
	"heavyhitter":  chaosHeavyHitter,
	"loadbalance":  chaosLoadBalance,
	"heartbeat":    chaosHeartbeat,
	"devicehealth": chaosDeviceHealth,
	"modem":        chaosModem,
}

// chaosEnv is the one-switch testbed every chaos pipeline shares: a
// room, a controller, and a faulty acoustic control hop.
type chaosEnv struct {
	sim       *netsim.Sim
	sw        *netsim.Switch
	voice     *core.Voice
	ctrl      *core.Controller
	plan      *core.FrequencyPlan
	reg       *telemetry.Registry
	streamHop float64
}

func newChaosEnv(reg *telemetry.Registry, faults netsim.Faults, streamHop float64) *chaosEnv {
	sim := netsim.NewSim()
	room := acoustic.NewRoom(44100, faults.Seed)
	// Same acoustic-plane defaults as the scenario runner: cull at the
	// microphone noise floor, compact behind the window loop.
	room.CullThreshold = acoustic.CullAuto
	mic := room.AddMicrophone("controller", acoustic.Position{}, 0.0005)
	sw := netsim.NewSwitch(sim, "s1")
	sp := room.AddSpeaker("s1", acoustic.Position{X: 1})
	voice := core.NewVoice(sim, mp.NewSounder(mp.NewPi(sim, sp, 0.002)))
	voice.Sounder().InjectFaults(faults)
	ctrl := core.NewController(sim, mic, core.NewDetector(core.MethodGoertzel, nil))
	// Instrument before registering wires so the acoustic hop's fault
	// counters are exposed too. All points share reg: the registry's
	// get-or-create semantics merge each point's counters into one
	// sweep-wide series set.
	ctrl.Instrument(reg)
	ctrl.Retention = 2
	room.Instrument(reg)
	ctrl.RegisterVoice("s1", voice)
	voice.Instrument(reg, "s1")
	return &chaosEnv{sim: sim, sw: sw, voice: voice, ctrl: ctrl,
		plan: core.DefaultPlan(), reg: reg, streamHop: streamHop}
}

// start begins detection on the configured path. Both branches make
// exactly one ticker registration at the same call position, so at
// streamHop == Window the event schedule — and therefore the whole
// report — is byte-identical to the batch run.
func (e *chaosEnv) start() {
	if e.streamHop > 0 {
		e.ctrl.StartStream(0, e.streamHop)
	} else {
		e.ctrl.Start(0)
	}
}

// addCanary registers a subscriber that panics on its first two
// windows and then behaves — below the quarantine threshold, so every
// chaos point proves the recover barrier without tripping the circuit
// breaker. The panics land in the first ~100 ms of the run and age out
// of the "recent errors" degradation input long before it ends.
func (e *chaosEnv) addCanary() {
	calls := 0
	e.ctrl.SubscribeWindowsNamed("canary", func(float64, []core.Detection) {
		calls++
		if calls <= 2 {
			panic("chaos canary")
		}
	})
}

// channel builds a faulty OpenFlow control channel sharing the
// acoustic hop's fault configuration (independent stream) and registers
// its counters with the controller.
func (e *chaosEnv) channel(faults netsim.Faults) *openflow.Channel {
	ch := openflow.NewChannel(e.sim, e.sw, 0.005)
	if faults != (netsim.Faults{}) {
		f := faults
		f.Seed = faults.Seed + 7
		ch.InjectFaults(f)
	}
	e.ctrl.RegisterChannel("s1", ch)
	return ch
}

// finish runs the simulation and fills the point's common fields.
func (e *chaosEnv) finish(dur float64, pt *ChaosPoint) core.HealthSnapshot {
	e.sim.RunUntil(dur)
	h := e.ctrl.Health()
	pt.Health = h.StateName
	pt.Reasons = h.Reasons
	pt.RecoveredPanics = h.HandlerPanics
	pt.Quarantined = len(h.Quarantined)
	for _, w := range h.Wire {
		pt.WireSent += w.Sent
		pt.WireDropped += w.Dropped
		pt.WireCorrupted += w.Corrupted
	}
	return h
}

func flowCounters(p *openflow.Programmer, pt *ChaosPoint) {
	pt.FlowAttempts += p.Attempts
	pt.FlowRetries += p.Retries
	pt.FlowFailures += p.Failures
}

// chaosPortKnock drives repeated secret-knock rounds through the full
// acoustic pipeline; truth is the number of rounds offered, detection
// is the FSM's accept count, and the accepted sequence installs the
// open rule through the retrying programmer.
func chaosPortKnock(reg *telemetry.Registry, faults netsim.Faults, dur, streamHop float64) ChaosPoint {
	e := newChaosEnv(reg, faults, streamHop)
	ch := e.channel(faults)
	seq := []uint16{7001, 7002, 7003}
	rule := openflow.FlowMod{Command: openflow.FlowAdd, Priority: 10, Action: netsim.Drop()}
	pk, err := core.NewPortKnock(e.plan, "s1", e.voice, ch, seq, rule)
	if err != nil {
		return ChaosPoint{Notes: "setup failed: " + err.Error()}
	}
	pk.SetErrorLog(e.ctrl.Errors)
	pk.Programmer().Instrument(e.reg)
	e.ctrl.Detector.AddWatch(pk.Frequencies()...)
	e.ctrl.SubscribeWindowsNamed("portknock", pk.HandleWindow)
	e.addCanary()
	e.start()

	// One knock round per second: three knocks 0.3 s apart. Even a
	// 10 s point pushes enough messages through the wire for the
	// health loss-rate input to be judged (minWireSample).
	rounds := 0
	for t := 1.0; t+0.6 < dur-1; t += 1.0 {
		rounds++
		for i, p := range seq {
			p := p
			e.sim.After(t+0.3*float64(i), func() {
				pk.Tap(&netsim.Packet{Flow: netsim.FiveTuple{DstPort: p}}, 0)
			})
		}
	}

	var pt ChaosPoint
	pt.GroundTruth = rounds
	e.finish(dur, &pt)
	pt.Detected = int(pk.Accepts())
	flowCounters(pk.Programmer(), &pt)
	pt.Notes = fmt.Sprintf("opened=%v installed=%v", pk.Opened, pk.Installed)
	return pt
}

// chaosHeavyHitter pushes one hot flow through the switch tap; truth
// is the number of complete traffic intervals, detection the intervals
// the hot bucket was flagged in.
func chaosHeavyHitter(reg *telemetry.Registry, faults netsim.Faults, dur, streamHop float64) ChaosPoint {
	e := newChaosEnv(reg, faults, streamHop)
	hh, err := core.NewHeavyHitter(e.plan, "s1", e.voice, 4)
	if err != nil {
		return ChaosPoint{Notes: "setup failed: " + err.Error()}
	}
	hh.Instrument(e.reg, "s1")
	// The Voice's per-frequency rate limit caps tone onsets near
	// 5/s, so flag on 2 onsets per 1 s interval.
	hh.Threshold = 2
	e.ctrl.Detector.AddWatch(hh.Frequencies()...)
	e.addCanary()
	hh.Start(e.ctrl, 0) // subscribes HandleWindow and starts intervals
	e.start()

	flow := netsim.FiveTuple{
		Src: netsim.MustAddr("10.0.0.1"), Dst: netsim.MustAddr("10.0.0.2"),
		SrcPort: 1111, DstPort: 80, Proto: netsim.ProtoTCP,
	}
	stop := dur - 1
	tick := e.sim.Every(1.0, 0.2, func(now float64) {
		hh.Tap(&netsim.Packet{Flow: flow}, 0)
	})
	e.sim.After(stop, tick.Stop)

	var pt ChaosPoint
	// Intervals fully covered by traffic: those ending in (2, stop].
	pt.GroundTruth = int(stop) - 1
	e.finish(dur, &pt)
	hot := hh.BucketOf(flow)
	for _, r := range hh.Reports {
		if r.Bucket == hot && r.Time > 2 && r.Time <= stop {
			pt.Detected++
		}
	}
	pt.Notes = fmt.Sprintf("hot bucket %d", hot)
	return pt
}

// chaosLoadBalance plays the queue monitor's congestion tone on a
// schedule; truth is tones offered, detection the confirmed high-level
// onsets the controller heard, and the first one must drive the split
// rule through the retrying programmer.
func chaosLoadBalance(reg *telemetry.Registry, faults netsim.Faults, dur, streamHop float64) ChaosPoint {
	e := newChaosEnv(reg, faults, streamHop)
	ch := e.channel(faults)
	qm := core.NewQueueMonitorWithTones(e.sw, 2, e.voice, core.DefaultQueueFrequencies)
	qm.Instrument(e.reg, "s1")
	rule := openflow.FlowMod{Command: openflow.FlowAdd, Priority: 5, Action: netsim.Drop()}
	lb := core.NewLoadBalancer(qm, ch, rule)
	lb.SetErrorLog(e.ctrl.Errors)
	lb.Programmer().Instrument(e.reg)
	e.ctrl.Detector.AddWatch(qm.Frequencies()...)
	e.ctrl.SubscribeWindowsNamed("queuemon", qm.HandleWindow)
	e.ctrl.SubscribeWindowsNamed("loadbalance", lb.HandleWindow)
	e.addCanary()
	e.start()

	high := qm.Frequencies()[2]
	truth := 0
	for t := 2.0; t < dur-1; t += 0.3 {
		truth++
		e.sim.Schedule(t, func() { e.voice.Play(high) })
	}

	var pt ChaosPoint
	pt.GroundTruth = truth
	e.finish(dur, &pt)
	// Raw heard entries, not HeardLevels: that helper collapses
	// consecutive duplicates, and every offered tone here is high.
	for _, s := range qm.Heard {
		if s.Level == core.LevelHigh {
			pt.Detected++
		}
	}
	flowCounters(lb.Programmer(), &pt)
	pt.Notes = fmt.Sprintf("triggered=%v installed=%v", lb.Triggered, lb.Installed)
	return pt
}

// chaosHeartbeat beats one device fast (so even short sweeps cross the
// wire-sample floor), kills it at 60% of the run, and measures heard
// beats against played ones; the monitor must still raise its death
// alert.
func chaosHeartbeat(reg *telemetry.Registry, faults netsim.Faults, dur, streamHop float64) ChaosPoint {
	e := newChaosEnv(reg, faults, streamHop)
	hb := core.NewHeartbeat()
	hb.Instrument(e.reg, "s1")
	hb.Period = 0.3
	f, err := hb.Register(e.plan, "s1", e.voice)
	if err != nil {
		return ChaosPoint{Notes: "setup failed: " + err.Error()}
	}
	e.ctrl.Detector.AddWatch(hb.Frequencies()...)
	e.addCanary()
	hb.Start(e.ctrl, 0)
	e.start()
	ticker, err := hb.StartDevice(e.sim, f, 0.1)
	if err != nil {
		return ChaosPoint{Notes: "setup failed: " + err.Error()}
	}
	death := 0.6 * dur
	e.sim.Schedule(death, ticker.Stop)

	var pt ChaosPoint
	e.finish(dur, &pt)
	pt.GroundTruth = int(e.voice.Emitted)
	pt.Detected = int(hb.BeatsOf("s1"))
	alertAfterDeath := false
	for _, a := range hb.Alerts {
		if a.Time >= death {
			alertAfterDeath = true
		}
	}
	pt.Notes = fmt.Sprintf("alerts=%d death-alert=%v", len(hb.Alerts), alertAfterDeath)
	return pt
}

// chaosDeviceHealth ages the hardware itself, on top of whatever the
// wire faults do: a three-microphone fleet listens to two beating
// speakers while one microphone's noise floor ramps up mid-run (and is
// repaired at half time) and one speaker drifts 4% off pitch for good.
// The device monitor must recalibrate the noisy microphone's detection
// threshold, quarantine it once it is effectively deaf, rejoin it after
// the repair, and re-key the detuned speaker so its beats keep arriving
// at the commanded frequency — so the point ends Degraded (the detune
// persists), never Stalled. Truth is tones emitted by both voices;
// detection is rising-edge onsets at the two commanded frequencies,
// which keeps counting across the re-key because the monitor rewrites
// shifted detections back before dispatch.
func chaosDeviceHealth(reg *telemetry.Registry, faults netsim.Faults, dur, streamHop float64) ChaosPoint {
	e := newChaosEnv(reg, faults, streamHop)
	room := e.ctrl.Mic().Room()
	m1 := room.AddMicrophone("m1", acoustic.Position{Y: 1}, 0.0005)
	m2 := room.AddMicrophone("m2", acoustic.Position{Y: 2}, 0.0005)
	sp2 := room.AddSpeaker("s2", acoustic.Position{X: -1})
	voice2 := core.NewVoice(e.sim, mp.NewSounder(mp.NewPi(e.sim, sp2, 0.002)))
	if faults != (netsim.Faults{}) {
		f := faults
		f.Seed = faults.Seed + 13 // independent stream for the second hop
		voice2.Sounder().InjectFaults(f)
	}
	e.ctrl.RegisterVoice("s2", voice2)
	voice2.Instrument(e.reg, "s2")

	fleet := e.ctrl.EnableFleet(2)
	fleet.AddMicrophone(m1)
	fleet.AddMicrophone(m2)
	defer fleet.Close()

	mon := e.ctrl.EnableDeviceMonitor()
	// Probe after half a second of fingerprint silence so the re-key
	// lands well inside even an 8 s point.
	mon.SilentWindows = 10
	const beat1, beat2 = 700.0, 880.0
	mon.WatchSpeaker("s1", e.voice, beat1)
	mon.WatchSpeaker("s2", voice2, beat2)
	e.ctrl.Detector.AddWatch(beat1, beat2)

	// Rising-edge onset counter over the two commanded frequencies.
	detected := 0
	prev1, prev2 := false, false
	e.ctrl.SubscribeWindowsNamed("beatcount", func(_ float64, dets []core.Detection) {
		cur1, cur2 := false, false
		for _, d := range dets {
			switch d.Frequency {
			case beat1:
				cur1 = true
			case beat2:
				cur2 = true
			}
		}
		if cur1 && !prev1 {
			detected++
		}
		if cur2 && !prev2 {
			detected++
		}
		prev1, prev2 = cur1, cur2
	})
	e.addCanary()
	e.start()

	e.sim.Every(0.1, 0.3, func(now float64) {
		e.voice.Play(beat1)
		voice2.Play(beat2)
	})

	// Fault timeline, scaled to the run. The noise ramp buries m1's
	// beats under a 0.5 RMS hiss until the repair at half time; the
	// detune is never repaired, so the point ends Degraded.
	noiseAt, clearAt := 0.15*dur, 0.5*dur
	m1.ScheduleNoiseRamp(noiseAt, noiseAt+0.5, 0.5)
	m1.ScheduleNoiseRamp(clearAt, clearAt+0.5, 0.0005)
	detuneAt := 0.2 * dur
	sp2.ScheduleDetune(detuneAt, detuneAt+0.5, 1.04)

	var pt ChaosPoint
	e.finish(dur, &pt)
	pt.GroundTruth = int(e.voice.Emitted + voice2.Emitted)
	pt.Detected = detected
	pt.Devices = mon.Snapshot()
	var recals, quars, rejoins, rekeys uint64
	for _, d := range pt.Devices {
		recals += d.Recalibrations
		quars += d.Quarantines
		rejoins += d.Rejoins
		rekeys += d.Rekeys
	}
	pt.Notes = fmt.Sprintf("recal=%d quarantine=%d rejoin=%d rekey=%d",
		recals, quars, rejoins, rekeys)
	return pt
}
