package core

import (
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/netsim"
	"mdn/internal/openflow"
)

func TestHealthHealthyRun(t *testing.T) {
	tb := newTestbed(11)
	voice := tb.voiceAt("s1", acoustic.Position{X: 1})
	freq := tb.plan.MustAllocate("s1", 1)[0]
	ctrl := tb.controller([]float64{freq})
	ctrl.RegisterVoice("s1", voice)
	ctrl.SubscribeWindowsNamed("app", func(float64, []Detection) {})
	ctrl.Start(0)
	beat := tb.sim.Every(0.2, 0.2, func(float64) { voice.Play(freq) })
	tb.sim.RunUntil(10)
	beat.Stop()

	h := ctrl.Health()
	if h.State != Healthy {
		t.Fatalf("state = %s (%v), want healthy", h.StateName, h.Reasons)
	}
	if h.Windows == 0 || h.Detections == 0 {
		t.Errorf("windows=%d detections=%d, want both nonzero", h.Windows, h.Detections)
	}
	if len(h.Wire) != 1 || h.Wire[0].Sent == 0 {
		t.Errorf("wire counters %+v, want one sounder with sends", h.Wire)
	}
	if h.WireLossRate != 0 {
		t.Errorf("loss rate %g on a clean wire, want 0", h.WireLossRate)
	}
	if h.AmplitudeMargin <= 1 {
		t.Errorf("amplitude margin %g, want comfortably above the floor", h.AmplitudeMargin)
	}
}

func TestHealthStalledWhenWindowsStop(t *testing.T) {
	tb, ctrl := supervisedController(12)
	ctrl.SubscribeWindows(func(float64, []Detection) {})
	ctrl.Start(0)
	tb.sim.RunUntil(1.0)
	if h := ctrl.Health(); h.State != Healthy {
		t.Fatalf("mid-run state = %s, want healthy", h.StateName)
	}
	// Kill the poll loop without clearing started — the watchdog, not
	// the ticker, must notice.
	ctrl.ticker.Stop()
	tb.sim.Schedule(3.0, func() {}) // advance the clock past the stall window
	tb.sim.RunUntil(3.0)

	h := ctrl.Health()
	if h.State != Stalled {
		t.Fatalf("state = %s (%v), want stalled", h.StateName, h.Reasons)
	}
	if len(h.Reasons) == 0 {
		t.Error("stalled verdict carries no reason")
	}
}

func TestHealthStoppedControllerIsNotStalled(t *testing.T) {
	tb, ctrl := supervisedController(13)
	ctrl.Start(0)
	tb.sim.RunUntil(1.0)
	ctrl.Stop()
	tb.sim.Schedule(5.0, func() {})
	tb.sim.RunUntil(5.0)

	if h := ctrl.Health(); h.State == Stalled {
		t.Errorf("cleanly stopped controller reports stalled: %v", h.Reasons)
	}
}

func TestHealthStalledWhenEverySubscriberQuarantined(t *testing.T) {
	tb, ctrl := supervisedController(14)
	ctrl.SubscribeWindowsNamed("only", func(float64, []Detection) { panic("dead") })
	ctrl.Start(0)
	tb.sim.RunUntil(1.0)

	h := ctrl.Health()
	if h.State != Stalled {
		t.Fatalf("state = %s (%v), want stalled (all subscribers quarantined)", h.StateName, h.Reasons)
	}
	if len(h.Quarantined) != 1 {
		t.Errorf("quarantined = %v, want one entry", h.Quarantined)
	}
}

func TestHealthDegradedOnWireLoss(t *testing.T) {
	tb := newTestbed(15)
	voice := tb.voiceAt("s1", acoustic.Position{X: 1})
	voice.Sounder().InjectFaults(netsim.Faults{DropProb: 0.5, Seed: 9})
	freq := tb.plan.MustAllocate("s1", 1)[0]
	ctrl := tb.controller([]float64{freq})
	ctrl.RegisterVoice("s1", voice)
	ctrl.SubscribeWindows(func(float64, []Detection) {})
	ctrl.Start(0)
	tb.sim.Every(0.2, 0.2, func(float64) { voice.Play(freq) })
	tb.sim.RunUntil(10)

	h := ctrl.Health()
	if h.State != Degraded {
		t.Fatalf("state = %s (%v), want degraded", h.StateName, h.Reasons)
	}
	if h.WireLossRate < DefaultDegradeLossRate {
		t.Errorf("loss rate %g below the trip point with 50%% drops", h.WireLossRate)
	}
}

func TestHealthDegradedErrorsAgeOut(t *testing.T) {
	tb, ctrl := supervisedController(16)
	ctrl.SubscribeWindows(func(float64, []Detection) {})
	ctrl.Start(0)
	tb.sim.Schedule(0.5, func() {
		ctrl.Errors.Record(0.5, "app", ErrFlowProgram)
	})
	tb.sim.RunUntil(1.0)
	if h := ctrl.Health(); h.State != Degraded {
		t.Fatalf("state just after an error = %s, want degraded", h.StateName)
	}
	tb.sim.RunUntil(10)
	h := ctrl.Health()
	if h.State != Healthy {
		t.Fatalf("state after errors aged out = %s (%v), want healthy", h.StateName, h.Reasons)
	}
	if h.ErrorsTotal != 1 {
		t.Errorf("ErrorsTotal = %d, want the aged-out error still counted", h.ErrorsTotal)
	}
}

func TestHealthRegisterChannelCounters(t *testing.T) {
	tb, ctrl := supervisedController(17)
	sw := netsim.NewSwitch(tb.sim, "s1")
	ch := openflow.NewChannel(tb.sim, sw, 0)
	ch.InjectFaults(netsim.Faults{DropProb: 1.0, Seed: 1})
	ctrl.RegisterChannel("s1", ch)
	ctrl.Start(0)
	for i := 0; i < minWireSample; i++ {
		_ = ch.SendFlowMod(openflow.FlowMod{Command: openflow.FlowAdd, Priority: 1, Action: netsim.Drop()})
	}
	tb.sim.RunUntil(1)

	h := ctrl.Health()
	if len(h.Wire) != 1 || h.Wire[0].Kind != "channel" {
		t.Fatalf("wire = %+v, want one channel entry", h.Wire)
	}
	if h.WireLossRate != 1 {
		t.Errorf("loss rate %g with DropProb 1, want 1", h.WireLossRate)
	}
	if h.State != Degraded {
		t.Errorf("state = %s, want degraded on total wire loss", h.StateName)
	}
}
