package experiments

import (
	"reflect"
	"testing"

	"mdn/internal/telemetry"
)

// TestFig2bDeterministicUnderStepClock pins the wall-clock fix: with
// the compute-stage clock swapped for a deterministic source, Fig2b
// produces identical results run to run — the experiment's only
// nondeterminism was the host's wall clock.
func TestFig2bDeterministicUnderStepClock(t *testing.T) {
	restore := setStageClock(&telemetry.StepClock{Step: 1e-5})
	a := Fig2b()
	restore()
	restore = setStageClock(&telemetry.StepClock{Step: 1e-5})
	b := Fig2b()
	restore()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Fig2b diverged under a deterministic clock:\n%s\nvs\n%s", Render(a), Render(b))
	}
	if !a.Pass() {
		t.Errorf("Fig2b failed under the step clock:\n%s", Render(a))
	}
	// Every sample took one 10 µs step, so the CDF is a point mass at
	// 0.01 ms (up to the step clock's float accumulation).
	if len(a.Series) == 0 {
		t.Fatal("Fig2b produced no CDF series")
	}
	for _, x := range a.Series[0].X {
		if x < 0.0099 || x > 0.0101 {
			t.Fatalf("CDF under StepClock{1e-5} should be ~0.01 ms everywhere, got %g", x)
		}
	}
}

// TestSetStageClockRestores covers the restore/reset paths.
func TestSetStageClockRestores(t *testing.T) {
	clock := &telemetry.StepClock{Step: 1}
	restore := setStageClock(clock)
	if stageClock != telemetry.TimeSource(clock) {
		t.Error("SetStageClock did not install the clock")
	}
	inner := setStageClock(nil) // nil resets to wall
	if _, ok := stageClock.(*telemetry.StepClock); ok {
		t.Error("setStageClock(nil) left the step clock installed")
	}
	inner()
	restore()
	if _, ok := stageClock.(*telemetry.StepClock); ok {
		t.Error("restore did not reinstate the original clock")
	}
}

// setStageClock overrides the compute-stage timing source and returns
// a function restoring the previous one. Passing nil resets to wall
// time.
func setStageClock(src telemetry.TimeSource) func() {
	prev := stageClock
	if src == nil {
		src = telemetry.Wall()
	}
	stageClock = src
	return func() { stageClock = prev }
}
