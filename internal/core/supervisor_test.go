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

	if calls != DefaultQuarantineThreshold {
		t.Errorf("subscriber called %d times, want exactly %d (then quarantined)",
			calls, DefaultQuarantineThreshold)
	}
	if ctrl.HandlerPanics != DefaultQuarantineThreshold {
		t.Errorf("HandlerPanics = %d, want %d", ctrl.HandlerPanics, DefaultQuarantineThreshold)
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
	if panicsLogged != DefaultQuarantineThreshold || quarantinesLogged != 1 {
		t.Errorf("logged %d panics / %d quarantines, want %d / 1",
			panicsLogged, quarantinesLogged, DefaultQuarantineThreshold)
	}
}

func TestTransientPanicsResetConsecutiveCount(t *testing.T) {
	tb, ctrl := supervisedController(3)
	calls := 0
	// Panic on every third window: never DefaultQuarantineThreshold in
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

func TestQuarantineThresholdOverride(t *testing.T) {
	tb, ctrl := supervisedController(4)
	ctrl.QuarantineThreshold = 1
	calls := 0
	ctrl.SubscribeWindows(func(float64, []Detection) {
		calls++
		panic("one strike")
	})
	ctrl.Start(0)
	tb.sim.RunUntil(0.5)

	if calls != 1 {
		t.Errorf("subscriber called %d times, want 1 with threshold 1", calls)
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
	l := &ErrorLog{Max: 4}
	for i := 0; i < 10; i++ {
		l.Record(float64(i), "app", ErrFlowProgram)
	}
	if l.Total() != 10 {
		t.Errorf("Total = %d, want 10", l.Total())
	}
	errs := l.errs
	if len(errs) != 4 {
		t.Fatalf("retained %d errors, want 4", len(errs))
	}
	if errs[0].Time != 6 || errs[3].Time != 9 {
		t.Errorf("retained window [%g, %g], want [6, 9]", errs[0].Time, errs[3].Time)
	}
	if got := l.Since(8); got != 2 {
		t.Errorf("Since(8) = %d, want 2", got)
	}
}

func TestNilErrorLogIsSafe(t *testing.T) {
	var l *ErrorLog
	l.Record(1, "app", ErrFlowProgram) // must not panic
	if l.Total() != 0 || l.Since(0) != 0 {
		t.Error("nil log must be empty")
	}
}
