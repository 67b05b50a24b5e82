package core

import (
	"errors"
	"testing"

	"mdn/internal/acoustic"
)

// supervisedController builds a controller with no watched
// frequencies: windows analyse silence, which still dispatches to
// window subscribers — all the supervisor needs.
func supervisedController(seed int64) (*testbed, *Controller) {
	tb := newTestbed(seed)
	return tb, tb.controller(nil)
}

func TestPanicIsolationKeepsOtherSubscribersRunning(t *testing.T) {
	tb, ctrl := supervisedController(1)
	goodWindows := 0
	ctrl.SubscribeWindowsNamed("good", func(float64, []Detection) { goodWindows++ })
	ctrl.SubscribeWindowsNamed("bad", func(float64, []Detection) { panic("boom") })
	ctrl.Start(0)
	tb.sim.RunUntil(0.5) // 10 windows

	if goodWindows != 10 {
		t.Errorf("good subscriber saw %d windows, want 10", goodWindows)
	}
	if ctrl.HandlerPanics == 0 {
		t.Error("no panics recorded")
	}
	if ctrl.Windows != 10 {
		t.Errorf("controller analysed %d windows, want 10", ctrl.Windows)
	}
}

func TestQuarantineAfterConsecutivePanics(t *testing.T) {
	tb, ctrl := supervisedController(2)
	calls := 0
	ctrl.SubscribeWindowsNamed("bad", func(float64, []Detection) {
		calls++
		panic("persistent failure")
	})
	ctrl.Start(0)
	tb.sim.RunUntil(1.0) // 20 windows, far beyond the threshold

	if calls != quarantineThreshold {
		t.Errorf("subscriber called %d times, want exactly %d (then quarantined)",
			calls, quarantineThreshold)
	}
	if ctrl.HandlerPanics != quarantineThreshold {
		t.Errorf("HandlerPanics = %d, want %d", ctrl.HandlerPanics, quarantineThreshold)
	}
	if s := ctrl.Subscribers(); len(s) != 1 || !s[0].Quarantined || s[0].Name != "bad" {
		t.Errorf("subscribers = %+v, want bad quarantined", s)
	}

	// The error log carries both taxonomy classes.
	var panicsLogged, quarantinesLogged int
	for _, e := range ctrl.Errors.errs {
		if errors.Is(e.Err, ErrQuarantined) {
			quarantinesLogged++
		} else if errors.Is(e.Err, ErrHandlerPanic) {
			panicsLogged++
		}
		if e.App != "bad" {
			t.Errorf("error attributed to %q, want bad", e.App)
		}
	}
	if panicsLogged != quarantineThreshold || quarantinesLogged != 1 {
		t.Errorf("logged %d panics / %d quarantines, want %d / 1",
			panicsLogged, quarantinesLogged, quarantineThreshold)
	}
}

func TestTransientPanicsResetConsecutiveCount(t *testing.T) {
	tb, ctrl := supervisedController(3)
	calls := 0
	// Panic on every third window: never quarantineThreshold in
	// a row, so the subscriber must stay live.
	ctrl.SubscribeWindowsNamed("flaky", func(float64, []Detection) {
		calls++
		if calls%3 == 0 {
			panic("transient")
		}
	})
	ctrl.Start(0)
	tb.sim.RunUntil(1.52) // 30 windows (the 30th tick accumulates float error past 1.5)

	if calls != 30 {
		t.Errorf("flaky subscriber called %d times, want 30 (never quarantined)", calls)
	}
	if s := ctrl.Subscribers(); s[0].Quarantined {
		t.Errorf("subscribers = %+v, want none quarantined", s)
	}
	if ctrl.HandlerPanics != 10 {
		t.Errorf("HandlerPanics = %d, want 10", ctrl.HandlerPanics)
	}
	for _, s := range ctrl.Subscribers() {
		if s.Name == "flaky" && s.Panics != 10 {
			t.Errorf("per-subscriber panics = %d, want 10", s.Panics)
		}
	}
}

func TestPanickingDetectionHandlerIsSupervised(t *testing.T) {
	tb := newTestbed(5)
	voice := tb.voiceAt("s1", acoustic.Position{X: 1})
	freq := tb.plan.MustAllocate("s1", 1)[0]
	ctrl := tb.controller([]float64{freq})
	panics := 0
	ctrl.SubscribeWindowsNamed("det-bomb", func(_ float64, dets []Detection) {
		if len(dets) > 0 {
			panics += len(dets)
			panic("detection bomb")
		}
	})
	heard := 0
	ctrl.SubscribeWindows(func(_ float64, dets []Detection) { heard += len(dets) })
	ctrl.Start(0)
	tb.sim.Schedule(0.2, func() { voice.Play(freq) })
	tb.sim.RunUntil(1.0)

	if panics == 0 {
		t.Fatal("detection handler never fired — tone not heard")
	}
	if heard != panics {
		t.Errorf("good detection handler saw %d detections, bomb saw %d; want equal", heard, panics)
	}
}

func TestErrorLogBoundsHistory(t *testing.T) {
	l := NewErrorLog()
	const recorded = errorLogMax + 6
	for i := 0; i < recorded; i++ {
		l.Record(float64(i), "app", ErrFlowProgram)
	}
	if l.Total() != recorded {
		t.Errorf("Total = %d, want %d", l.Total(), recorded)
	}
	errs := l.errs
	if len(errs) != errorLogMax {
		t.Fatalf("retained %d errors, want %d", len(errs), errorLogMax)
	}
	if errs[0].Time != 6 || errs[errorLogMax-1].Time != recorded-1 {
		t.Errorf("retained window [%g, %g], want [6, %d]", errs[0].Time, errs[errorLogMax-1].Time, recorded-1)
	}
	if got := l.Since(recorded - 2); got != 2 {
		t.Errorf("Since(%d) = %d, want 2", recorded-2, got)
	}
}

func TestNilErrorLogIsSafe(t *testing.T) {
	var l *ErrorLog
	l.Record(1, "app", ErrFlowProgram) // must not panic
	if l.Total() != 0 || l.Since(0) != 0 {
		t.Error("nil log must be empty")
	}
}
