package scenario

import (
	"strings"
	"testing"

	"mdn/internal/core"
	"mdn/internal/telemetry"
)

func trafficTestConfig() TrafficSweepConfig {
	return TrafficSweepConfig{
		Seed:       42,
		FlowCounts: []int{2000, 8000},
	}
}

// TestTrafficSweepAccuracy: on a Zipf workload the sketch stack finds
// every heavy hitter the oracle does and the HLL distinct estimate
// stays inside a few standard errors.
func TestTrafficSweepAccuracy(t *testing.T) {
	rep, err := RunTrafficSweep(trafficTestConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.FlowsSeen != p.Flows {
			t.Errorf("flows=%d: only %d emitted (floor should cover all)", p.Flows, p.FlowsSeen)
		}
		if p.Packets == 0 || p.Events == 0 {
			t.Errorf("flows=%d: packets=%d events=%d", p.Flows, p.Packets, p.Events)
		}
		if p.HeavyTrue == 0 {
			t.Errorf("flows=%d: Zipf head produced no heavy hitters", p.Flows)
		}
		if p.FalseNegRate > 0.02 {
			t.Errorf("flows=%d: false-negative rate %.3f > 2%%", p.Flows, p.FalseNegRate)
		}
		if p.MeanRelErr < 0 {
			t.Errorf("flows=%d: count-min underestimated (mean rel err %.4f)", p.Flows, p.MeanRelErr)
		}
		if p.MaxRelErr > 0.02 {
			t.Errorf("flows=%d: max heavy-hitter overestimate %.3f > 2%%", p.Flows, p.MaxRelErr)
		}
		// p=14 -> standard error ~0.82%; allow 5 sigma.
		if p.DistinctRelErr > 0.041 {
			t.Errorf("flows=%d: HLL error %.3f > 4.1%%", p.Flows, p.DistinctRelErr)
		}
		// The pool bounds live packets far below the total sent.
		if p.PoolAllocated > p.Packets/2 {
			t.Errorf("flows=%d: pool allocated %d of %d packets", p.Flows, p.PoolAllocated, p.Packets)
		}
	}
	if !strings.Contains(rep.Table(), "traffic analytics sweep") {
		t.Error("Table() missing header")
	}
}

// TestTrafficSweepTelemetry: the sweep publishes the estimate-error
// histogram and wall-rate gauges, and the dump survives
// exposition-format validation.
func TestTrafficSweepTelemetry(t *testing.T) {
	reg := telemetry.New()
	cfg := trafficTestConfig()
	cfg.FlowCounts = []int{2000}
	if _, err := RunTrafficSweep(cfg, reg); err != nil {
		t.Fatal(err)
	}
	txt := reg.Snapshot().Text()
	if err := telemetry.ValidateText(strings.NewReader(txt)); err != nil {
		t.Fatalf("metrics dump invalid: %v", err)
	}
	for _, want := range []string{
		core.MetricSketchError + "_bucket",
		core.MetricTrafficPPS,
		core.MetricTrafficEPS,
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("metrics dump missing %s:\n%s", want, txt)
		}
	}
}

// TestTrafficSweepRejectsBadConfig covers the knob validation.
func TestTrafficSweepRejectsBadConfig(t *testing.T) {
	if _, err := RunTrafficSweep(TrafficSweepConfig{FlowCounts: []int{0}}, nil); err == nil {
		t.Error("flow count 0 accepted")
	}
}
