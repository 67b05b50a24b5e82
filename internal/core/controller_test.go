package core

import (
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/audio"
	"mdn/internal/mp"
)

func TestControllerHearsScheduledTones(t *testing.T) {
	tb := newTestbed(1)
	voice := tb.voiceAt("s1", acoustic.Position{X: 1})
	freqs := tb.plan.MustAllocate("s1", 2)
	ctrl := tb.controller(freqs)

	var dets []Detection
	ctrl.SubscribeWindows(func(_ float64, ds []Detection) { dets = append(dets, ds...) })
	ctrl.Start(0)

	tb.sim.Schedule(0.5, func() { voice.Play(freqs[0]) })
	tb.sim.Schedule(1.0, func() { voice.Play(freqs[1]) })
	tb.sim.RunUntil(1.5)

	heard := map[float64]bool{}
	for _, d := range dets {
		heard[d.Frequency] = true
	}
	if !heard[freqs[0]] || !heard[freqs[1]] {
		t.Fatalf("heard = %v, want both of %v", heard, freqs)
	}
	if ctrl.Windows < 25 {
		t.Errorf("windows = %d, want ~30 over 1.5 s", ctrl.Windows)
	}
	if ctrl.Detections == 0 {
		t.Error("no detections counted")
	}
}

func TestControllerWindowBatchesIncludeEmpties(t *testing.T) {
	tb := newTestbed(2)
	freqs := tb.plan.MustAllocate("s1", 1)
	ctrl := tb.controller(freqs)
	batches := 0
	ctrl.SubscribeWindows(func(_ float64, dets []Detection) {
		batches++
		if len(dets) != 0 {
			t.Errorf("silent room produced detections: %+v", dets)
		}
	})
	ctrl.Start(0)
	tb.sim.RunUntil(1)
	if batches < 18 {
		t.Errorf("batches = %d, want ~19", batches)
	}
}

func TestControllerStopHalts(t *testing.T) {
	tb := newTestbed(3)
	ctrl := tb.controller([]float64{500})
	ctrl.Start(0)
	tb.sim.RunUntil(0.5)
	w := ctrl.Windows
	ctrl.Stop()
	tb.sim.RunUntil(2)
	if ctrl.Windows != w {
		t.Errorf("windows grew after Stop: %d -> %d", w, ctrl.Windows)
	}
	// Stop again is harmless.
	ctrl.Stop()
}

func TestControllerRestart(t *testing.T) {
	tb := newTestbed(4)
	ctrl := tb.controller([]float64{500})
	ctrl.Start(0)
	tb.sim.RunUntil(0.3)
	ctrl.Start(0.3) // restart replaces the first poller
	tb.sim.RunUntil(0.6)
	// ~6 windows from the first run plus ~6 from the second; a
	// doubled poller would give ~18.
	if ctrl.Windows > 14 {
		t.Errorf("windows = %d; restart leaked the old poller", ctrl.Windows)
	}
}

func TestControllerAccessors(t *testing.T) {
	tb := newTestbed(6)
	ctrl := tb.controller(nil)
	if ctrl.mic != tb.mic || ctrl.Sim() != tb.sim {
		t.Error("accessors wrong")
	}
}

func TestControllerMultipleSpeakersSimultaneously(t *testing.T) {
	// Figure 2a in miniature: two switches play at once; both are
	// identified because their sets are disjoint.
	tb := newTestbed(7)
	v1 := tb.voiceAt("s1", acoustic.Position{X: 1})
	v2 := tb.voiceAt("s2", acoustic.Position{X: -1})
	f1 := tb.plan.MustAllocate("s1", 1)
	f2 := tb.plan.MustAllocate("s2", 1)
	ctrl := tb.controller(append(append([]float64{}, f1...), f2...))
	var heard []float64
	ctrl.SubscribeWindows(func(_ float64, dets []Detection) {
		for _, d := range dets {
			heard = append(heard, d.Frequency)
		}
	})
	ctrl.Start(0)
	tb.sim.Schedule(0.5, func() {
		v1.Play(f1[0])
		v2.Play(f2[0])
	})
	tb.sim.RunUntil(1)
	got := map[float64]bool{}
	for _, f := range heard {
		got[f] = true
	}
	if !got[f1[0]] || !got[f2[0]] {
		t.Errorf("heard %v, want both %g and %g", heard, f1[0], f2[0])
	}
}

func TestVoiceRateLimiting(t *testing.T) {
	tb := newTestbed(8)
	voice := tb.voiceAt("s1", acoustic.Position{X: 1})
	tb.sim.Schedule(0, func() {
		if !voice.Play(700) {
			t.Error("first play should pass")
		}
		if voice.Play(700) {
			t.Error("immediate replay should be suppressed")
		}
		if !voice.Play(720) {
			t.Error("different frequency should pass")
		}
	})
	tb.sim.Schedule(0.2, func() {
		if !voice.Play(700) {
			t.Error("replay after VoiceMinGap should pass")
		}
	})
	tb.sim.Run()
	if voice.Emitted != 3 || voice.Suppressed != 1 {
		t.Errorf("emitted=%d suppressed=%d", voice.Emitted, voice.Suppressed)
	}
}

func TestVoicePlayMessageBypassesRateLimit(t *testing.T) {
	tb := newTestbed(9)
	voice := tb.voiceAt("s1", acoustic.Position{X: 1})
	tb.sim.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			voice.PlayMessage(mp.Message{Frequency: 700, Duration: 0.05, Intensity: 60})
		}
	})
	tb.sim.Run()
	if voice.Emitted != 3 {
		t.Errorf("emitted = %d", voice.Emitted)
	}
	if tb.room.EmissionCount() != 3 {
		t.Errorf("emissions = %d", tb.room.EmissionCount())
	}
}

func TestControllerRetentionBoundsEmissions(t *testing.T) {
	// Two controllers over identical schedules: one retaining
	// everything (legacy), one compacting behind the window loop. The
	// compacting controller must hear the same tones while holding the
	// emission store at the audible horizon.
	run := func(retention float64) (*Controller, *acoustic.Room) {
		tb := newTestbed(9)
		freqs := tb.plan.MustAllocate("s1", 1)
		sp := tb.room.AddSpeaker("s1", acoustic.Position{X: 1})
		ctrl := tb.controller(freqs)
		ctrl.Retention = retention
		tb.sim.Every(0.1, 0.1, func(now float64) {
			sp.Play(now, audio.Tone{Frequency: freqs[0], Duration: 0.06, Amplitude: 0.05})
		})
		ctrl.Start(0)
		tb.sim.RunUntil(30)
		return ctrl, tb.room
	}
	legacy, legacyRoom := run(0)
	compacting, room := run(0.5)
	if legacy.Detections == 0 {
		t.Fatal("legacy controller heard nothing; test scenario is broken")
	}
	if compacting.Detections != legacy.Detections {
		t.Errorf("retention changed detections: %d vs legacy %d", compacting.Detections, legacy.Detections)
	}
	if got := legacyRoom.EmissionCount(); got < 290 {
		t.Errorf("legacy room holds %d emissions, want the full ~300 schedule", got)
	}
	// 300 tones scheduled; retention 0.5 s spans ~5 of the 0.1 s
	// schedule slots (plus in-flight margin).
	if got := room.EmissionCount(); got > 20 {
		t.Errorf("compacting room holds %d emissions, want the audible horizon (~6)", got)
	}
}
