package core

import (
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/mp"
)

// relayBed: a quiet switch 10 m from the controller whose tones are
// too faint for the calibrated controller threshold, and a relay
// positioned between them.
type relayBed struct {
	*testbed
	srcVoice *Voice
	relay    *Relay
	ctrl     *Controller
	inFreq   float64
	outFreq  float64
}

func newRelayBed(t *testing.T) *relayBed {
	t.Helper()
	tb := newTestbed(70)
	// Far switch: 10 m from the controller, quiet 40 dB tones.
	srcVoice := tb.voiceAt("far-switch", acoustic.Position{X: 10})
	srcVoice.Intensity = 40      // 3.16e-3 at 1 m => 3.16e-4 at 10 m
	srcVoice.ToneDuration = 0.12 // two fully covered 50 ms windows at the relay

	inFreq := tb.plan.MustAllocate("far-switch", 1)[0]
	outFreq := inFreq + 400 // relay band, well clear of the input

	// Relay 2 m from the switch (8 m from the controller): its mic
	// hears 1.6e-3; it re-emits at 60 dB.
	relayMic := tb.room.AddMicrophone("relay-mic", acoustic.Position{X: 8}, 0.0001)
	relaySp := tb.room.AddSpeaker("relay-spk", acoustic.Position{X: 2})
	relayPi := mp.NewPi(tb.sim, relaySp, 0.002)
	relay, err := NewRelay(tb.sim, relayMic, relayPi, map[float64]float64{inFreq: outFreq})
	if err != nil {
		t.Fatal(err)
	}
	relay.Detector().MinAmplitude = 1e-3 // hears the switch at 2 m only

	// Controller: calibrated threshold 1e-3 — the direct 10 m path
	// (3.2e-4) is below it, the relayed 2 m path (~0.016) far above.
	ctrl := tb.controller([]float64{inFreq, outFreq})
	ctrl.Detector.MinAmplitude = 1e-3
	return &relayBed{
		testbed: tb, srcVoice: srcVoice, relay: relay, ctrl: ctrl,
		inFreq: inFreq, outFreq: outFreq,
	}
}

func TestRelayExtendsReach(t *testing.T) {
	bed := newRelayBed(t)
	var heard []Detection
	onset := NewOnsetFilter()
	bed.ctrl.SubscribeWindows(func(_ float64, dets []Detection) {
		heard = append(heard, onset.Step(dets)...)
	})
	bed.relay.Start(0)
	bed.ctrl.Start(0)
	bed.sim.Schedule(0.5, func() { bed.srcVoice.Play(bed.inFreq) })
	bed.sim.RunUntil(2)

	if bed.relay.Relayed != 1 {
		t.Fatalf("relayed = %d, want 1", bed.relay.Relayed)
	}
	var direct, relayed int
	for _, d := range heard {
		switch d.Frequency {
		case bed.inFreq:
			direct++
		case bed.outFreq:
			relayed++
		}
	}
	if direct != 0 {
		t.Errorf("controller heard the far switch directly %d times; should be out of range", direct)
	}
	if relayed != 1 {
		t.Errorf("relayed tone heard %d times, want 1", relayed)
	}
}

func TestRelayWithoutRelayNothingHeard(t *testing.T) {
	bed := newRelayBed(t)
	var heard int
	bed.ctrl.SubscribeWindows(func(_ float64, dets []Detection) { heard += len(dets) })
	// Relay NOT started.
	bed.ctrl.Start(0)
	bed.sim.Schedule(0.5, func() { bed.srcVoice.Play(bed.inFreq) })
	bed.sim.RunUntil(2)
	if heard != 0 {
		t.Errorf("controller heard %d tones without the relay", heard)
	}
}

func TestRelayIgnoresUnmappedTones(t *testing.T) {
	tb := newTestbed(71)
	mic := tb.room.AddMicrophone("relay-mic", acoustic.Position{X: 1}, 0.0001)
	sp := tb.room.AddSpeaker("relay-spk", acoustic.Position{X: 2})
	relay, err := NewRelay(tb.sim, mic, mp.NewPi(tb.sim, sp, 0.001),
		map[float64]float64{600: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Feed a confirmed onset of an unmapped frequency directly.
	relay.handleWindow(0, []Detection{{Frequency: 640, Amplitude: 0.01}})
	relay.handleWindow(0.05, []Detection{{Frequency: 640, Amplitude: 0.01}})
	if relay.Relayed != 0 {
		t.Error("unmapped tone relayed")
	}
	// The detector only watches mapped inputs anyway; Ignored counts
	// synthetic feeds like this one.
	if relay.Ignored != 1 {
		t.Errorf("ignored = %d, want 1", relay.Ignored)
	}
}

func TestRelayRejectsBadMappings(t *testing.T) {
	tb := newTestbed(72)
	mic := tb.room.AddMicrophone("m", acoustic.Position{}, 0)
	sp := tb.room.AddSpeaker("s", acoustic.Position{X: 1})
	pi := mp.NewPi(tb.sim, sp, 0)
	if _, err := NewRelay(tb.sim, mic, pi, nil); err == nil {
		t.Error("empty mapping accepted")
	}
	if _, err := NewRelay(tb.sim, mic, pi, map[float64]float64{500: 500}); err == nil {
		t.Error("self-oscillating mapping accepted")
	}
}
