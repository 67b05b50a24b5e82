package main

import (
	"fmt"

	"mdn/internal/acoustic"
	"mdn/internal/core"
	"mdn/internal/mp"
	"mdn/internal/netsim"
	"mdn/internal/openflow"
)

// The rack-row world of fleet-batch and fleet-stream.
const (
	fleetSwitches   = 32
	switchSpacing   = 3.0  // metres between switches along the row
	fleetMics       = 8    // one microphone per four switches
	micSpacing      = 12.0 // metres between microphones
	micSetback      = 3.0  // metres from the row to the microphones
	heartbeatPeriod = 0.3
	// knockPeriod knocks every switch about once per 2 s. The extra
	// 0.618 of a window keeps it off the 50 ms window grid: each
	// switch's knock phase against the windows then walks a
	// low-discrepancy sequence instead of repeating, so a run's react
	// latencies sample every phase and their median is steady across
	// seeds.
	knockPeriod = 2 + 0.618034*window
	knockGap    = 0.3 // between the three knocks of a round
	fleetMPDrop = 0.02
	fleetOFDrop = 0.05
	fleetHop    = 0.010 // streaming hop of fleet-stream
	// fleetMinAmplitude is the detection floor (default 2.5e-4). It sits
	// above the splatter a tone's onset leaks into the guard-banded
	// neighbours 80 Hz away (about 7 % of a 3 m tone): at 10 ms hops that
	// splatter persists for several hop windows and, at the default
	// floor, passes the apps' two-window onset confirmation as phantom
	// knocks. With toneDuration the farthest switch (6.7 m from its
	// microphone) still clears it in two windows.
	fleetMinAmplitude = 1.5e-3
)

var knockPorts = []uint16{7001, 7002, 7003}

// fleetWorld is a row of voiced switches heard by a microphone fleet.
// Every switch plays a heartbeat and runs a port knock; the benchmark
// knocks each switch once per knockPeriod, and a responder programs one
// rule per accepted round. A react event runs from a round's third
// knock to its rule being installed at the switch.
type fleetWorld struct {
	world
	names   []string
	voices  []*core.Voice
	hb      *core.Heartbeat
	hbAt    []float64 // first heartbeat per switch
	pks     []*core.PortKnock
	progs   []*openflow.Programmer
	accepts []uint64
	spoiled []bool  // the round in progress lost a knock to an injected fault
	rounds  [][]int // react event ID per switch per round
	knocks  [][]netsim.Packet
	// installs counts rules the responder asked for.
	installs int

	installs0            int
	attempts0, failures0 uint64
}

func buildFleet(cfg runConfig, tr *tracer, stream bool) (scenario, error) {
	rng := newRand(cfg.seed, 1)
	w := &fleetWorld{world: newWorld(cfg.seed, tr)}
	for j := 0; j < fleetMics; j++ {
		pos := acoustic.Position{X: micSpacing * (float64(j) + 0.5), Y: micSetback}
		w.mics = append(w.mics, w.room.AddMicrophone(fmt.Sprintf("mic%d", j), pos, micNoise))
	}
	// 32 switches × (1 heartbeat + 3 knock tones), guard-banded, fill
	// 512 of the 531 slots of a 400 Hz–11 kHz plan.
	plan := core.NewFrequencyPlan(400, 11000, core.DefaultSpacing)
	det := core.NewDetector(core.MethodFFT, nil)
	det.MinAmplitude = fleetMinAmplitude
	w.newController(w.mics[0], det)
	w.hb = core.NewHeartbeat()
	w.hb.Period = heartbeatPeriod
	hbFreqs := make([]float64, fleetSwitches)
	for s := 0; s < fleetSwitches; s++ {
		name := fmt.Sprintf("s%02d", s)
		sw := netsim.NewSwitch(w.sim, name)
		sp := w.room.AddSpeaker(name, acoustic.Position{X: switchSpacing * float64(s)})
		voice := core.NewVoice(w.sim, mp.NewSounder(mp.NewPi(w.sim, sp, piDelay)))
		voice.ToneDuration = toneDuration
		voice.Sounder().InjectFaults(netsim.Faults{DropProb: fleetMPDrop, Seed: rng.Int63()})
		f, err := w.hb.Register(plan, name, voice)
		if err != nil {
			return nil, err
		}
		hbFreqs[s] = f
		ch := openflow.NewChannel(w.sim, sw, channelLatency)
		ch.InjectFaults(netsim.Faults{DropProb: fleetOFDrop, Seed: rng.Int63()})
		open := openflow.FlowMod{Command: openflow.FlowAdd, Priority: 50,
			Match: netsim.Match{DstPort: 22}, Action: netsim.Output(1)}
		pk, err := core.NewPortKnock(plan, name, voice, ch, knockPorts, open)
		if err != nil {
			return nil, err
		}
		pk.SetErrorLog(w.ctrl.Errors)
		det.AddWatch(f)
		det.AddWatch(pk.Frequencies()...)
		w.ctrl.RegisterVoice(name, voice)
		w.ctrl.RegisterChannel(name, ch)

		prog := openflow.NewProgrammer(ch, rng.Int63())
		idx := s
		prog.OnResult = func(m openflow.FlowMod, err error) { w.result(idx, m, err) }
		pkts := make([]netsim.Packet, len(knockPorts))
		for i, port := range knockPorts {
			pkts[i].Flow.DstPort = port
		}
		w.names = append(w.names, name)
		w.voices = append(w.voices, voice)
		w.pks = append(w.pks, pk)
		w.progs = append(w.progs, prog)
		w.knocks = append(w.knocks, pkts)
	}
	w.accepts = make([]uint64, fleetSwitches)
	w.spoiled = make([]bool, fleetSwitches)
	w.rounds = make([][]int, fleetSwitches)

	fleet := w.ctrl.EnableFleet(cfg.workers)
	for _, m := range w.mics[1:] {
		fleet.AddMicrophone(m)
	}
	fleet.Instrument(w.reg)
	w.closers = append(w.closers, fleet.Close)
	w.ctrl.EnableDeviceMonitor()

	w.subscribe("heartbeat", "core.app.heartbeat_ns", w.hb.HandleWindow)
	w.subscribe("portknock", "core.app.portknock_ns", w.knockWindow)
	w.subscribe("responder", "core.app.responder_ns", w.respond)

	// Seeded schedules: heartbeat phases, and each switch's knock phase
	// within the period (its three knocks then repeat every period).
	for s := 0; s < fleetSwitches; s++ {
		at := 0.05 + rng.Float64()*heartbeatPeriod
		w.hbAt = append(w.hbAt, at)
		if _, err := w.hb.StartDevice(w.sim, hbFreqs[s], at); err != nil {
			return nil, err
		}
		first := 0.1 + rng.Float64()*(knockPeriod-0.1)
		for i := range knockPorts {
			s, i := s, i
			w.sim.Every(first+float64(i)*knockGap, knockPeriod, func(now float64) { w.knock(s, i, now) })
		}
	}
	hop, shadowFleet := 0.0, cfg.workers
	if stream {
		hop, shadowFleet = fleetHop, 0
	}
	w.start(hop, shadowFleet)
	return w, nil
}

// knock taps knock i of switch s's current round through the switch's
// PortKnock. A knock whose MP message an injected fault dropped spoils
// the round: its input never reached the controller, so the round is
// logged but neither attempted nor failed.
func (w *fleetWorld) knock(s, i int, now float64) {
	if i == 0 {
		w.spoiled[s] = false
	}
	snd := w.voices[s].Sounder()
	dropped, suppressed := snd.Dropped, w.voices[s].Suppressed
	t0 := w.tr.start()
	w.pks[s].Tap(&w.knocks[s][i], 0)
	w.tr.end(spanTap, t0, -1, true)
	if snd.Dropped != dropped || w.voices[s].Suppressed != suppressed {
		w.spoiled[s] = true
	}
	if i == len(knockPorts)-1 {
		// The round has until the switch's next first knock.
		deadline := now + knockPeriod - knockGap*float64(len(knockPorts)-1)
		w.rounds[s] = append(w.rounds[s], w.react.add(now, deadline, !w.spoiled[s]))
	}
}

func (w *fleetWorld) knockWindow(from float64, dets []core.Detection) {
	for _, pk := range w.pks {
		pk.HandleWindow(from, dets)
	}
}

// respond is the responder: for every switch whose knock FSM accepted
// since the last window, it programs that round's rule.
func (w *fleetWorld) respond(float64, []core.Detection) {
	now := w.sim.Now()
	for s, pk := range w.pks {
		a := pk.Accepts()
		if a == w.accepts[s] {
			continue
		}
		w.accepts[s] = a
		rounds := w.rounds[s]
		if len(rounds) == 0 {
			w.react.anomaly("switch %d accepted before any knock round", s)
			continue
		}
		// A round that lost a knock can still be accepted: the FSM has no
		// inter-knock timeout, so knocks an earlier round left behind can
		// complete it. Such a round stays uncounted.
		round := len(rounds) - 1
		id := rounds[round]
		if !w.react.decide(id, now) {
			continue
		}
		t0 := w.tr.start()
		err := w.progs[s].Install(knockRule(round))
		w.tr.end(spanInstall, t0, int64(id), false)
		w.installs++
		if err != nil {
			w.react.anomaly("switch %d: %v", s, err)
		}
	}
}

// knockRule is the rule for one accepted round; the round number in the
// match makes every round's rule distinct, so results attribute back to
// rounds. Rules expire after a second to keep tables small.
func knockRule(round int) openflow.FlowMod {
	return openflow.FlowMod{
		Command:     openflow.FlowAdd,
		Priority:    100,
		Match:       netsim.Match{DstPort: 7100, SrcPort: uint16(round)},
		Action:      netsim.Output(1),
		HardTimeout: 1,
	}
}

// result is switch s's programmer outcome. A confirmed send lands at the
// switch one channel latency later, which is when the event completes.
func (w *fleetWorld) result(s int, m openflow.FlowMod, err error) {
	w.progs[s].Forget(m)
	round := int(m.Match.SrcPort)
	if round >= len(w.rounds[s]) {
		w.react.anomaly("switch %d: result for unknown round %d", s, round)
		return
	}
	if err == nil {
		w.react.complete(w.rounds[s][round], w.sim.Now()+channelLatency)
	}
}

func (w *fleetWorld) programmerTotals() (attempts, failures uint64) {
	for _, p := range w.progs {
		attempts += p.Attempts
		failures += p.Failures
	}
	return attempts, failures
}

func (w *fleetWorld) begin() {
	w.installs0 = w.installs
	w.attempts0, w.failures0 = w.programmerTotals()
}

func (w *fleetWorld) finish(end float64, out *runOut) {
	attempts, failures := w.programmerTotals()
	if n := w.installs - w.installs0; n > 0 {
		out.metrics["openflow.attempts_per_rule"] = float64(attempts-w.attempts0) / float64(n)
	}
	out.metrics["openflow.failures"] = float64(failures - w.failures0)

	// Heartbeat recall over the whole run: beats heard ÷ beats played,
	// counting ticks exactly as the heartbeat ticker schedules them.
	var heard, played uint64
	for s, name := range w.names {
		heard += w.hb.BeatsOf(name)
		for t := w.hbAt[s]; t <= end; t += heartbeatPeriod {
			played++
		}
	}
	recall := float64(heard) / float64(played)
	out.metrics["tone_recall"] = recall
	out.check(recall >= 0.9, "tone_recall %.4f below 0.9", recall)
	out.check(out.successFrac() >= 0.85, "fail_frac %.4f above 0.15", 1-out.successFrac())
}
