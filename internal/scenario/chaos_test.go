package scenario

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"mdn/internal/core"
	"mdn/internal/telemetry"
)

// chaosTestConfig is small enough for CI but long enough that every
// pipeline crosses the health monitor's minimum wire sample.
func chaosTestConfig() ChaosConfig {
	return ChaosConfig{
		Seed:      7,
		DropRates: []float64{0, 0.3, 0.5},
		DurationS: 10,
	}
}

func TestChaosSweepIsDeterministic(t *testing.T) {
	aReg, bReg := telemetry.New(), telemetry.New()
	a, err := RunChaos(chaosTestConfig(), aReg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(chaosTestConfig(), bReg)
	if err != nil {
		t.Fatal(err)
	}
	// The JSON report is the determinism contract: it excludes the
	// wall-clock latency histograms (decode/dispatch time varies run
	// to run) and must be byte-identical for the same config.
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Errorf("two identical sweeps diverged:\n%s\nvs\n%s", a.Table(), b.Table())
	}
	// Virtual-time telemetry is deterministic too: the flow-programming
	// latency histogram (Install→outcome on simulated time) must agree
	// between the sweeps, counts and sums alike.
	bMetrics := make(map[string]telemetry.MetricSnapshot)
	for _, m := range bReg.Snapshot().Metrics {
		bMetrics[m.Name] = m
	}
	for _, m := range aReg.Snapshot().Metrics {
		if m.Kind != "histogram" || !containsSubstr(m.Name, "mdn_flow_program_seconds") {
			continue
		}
		bm, ok := bMetrics[m.Name]
		if !ok {
			t.Errorf("%s missing from second sweep", m.Name)
			continue
		}
		if m.Count != bm.Count || m.Sum != bm.Sum {
			t.Errorf("%s diverged: count %d/%d sum %g/%g", m.Name, m.Count, bm.Count, m.Sum, bm.Sum)
		}
	}
}

func TestChaosRejectsMisalignedStreamHop(t *testing.T) {
	cfg := chaosTestConfig()
	cfg.StreamHop = 0.012
	if _, err := RunChaos(cfg, nil); err == nil {
		t.Fatal("misaligned stream hop accepted")
	}
}

// BenchmarkChaosSweep measures the sweep wall clock serial versus
// pooled (DESIGN.md §5e records its numbers). On a single-core
// host the pooled rows pin scheduling overhead instead of scaling.
func BenchmarkChaosSweep(b *testing.B) {
	for _, w := range []int{1, 4} {
		name := "serial"
		if w > 1 {
			name = "workers=4"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := chaosTestConfig()
				cfg.DurationS = 5
				cfg.Workers = w
				if _, err := RunChaos(cfg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func containsSubstr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestChaosGracefulDegradation(t *testing.T) {
	rep, err := RunChaos(chaosTestConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	byScenario := make(map[string]map[float64]ChaosPoint)
	for _, p := range rep.Points {
		if byScenario[p.Scenario] == nil {
			byScenario[p.Scenario] = make(map[float64]ChaosPoint)
		}
		byScenario[p.Scenario][p.DropRate] = p
	}
	for _, name := range ChaosScenarioNames {
		if name == "devicehealth" {
			// Hardware faults, not wire faults: it ends Degraded by
			// design (the detune persists) and is asserted separately
			// in TestChaosDeviceHealthSelfHeals.
			continue
		}
		pts := byScenario[name]
		if len(pts) != 3 {
			t.Fatalf("%s: %d points, want 3", name, len(pts))
		}
		clean, heavy := pts[0], pts[0.5]

		// A clean channel is healthy — the canary's recovered panics
		// must not degrade it — and detection is near-perfect.
		if clean.Health != "healthy" {
			t.Errorf("%s at 0%%: health %s (%v), want healthy", name, clean.Health, clean.Reasons)
		}
		if clean.Recall < 0.85 {
			t.Errorf("%s at 0%%: recall %.2f, want >= 0.85", name, clean.Recall)
		}
		if clean.RecoveredPanics == 0 {
			t.Errorf("%s at 0%%: canary panics not recorded", name)
		}

		// Degradation is graceful: recall never improves under loss,
		// and heavy loss is reported as Degraded — never Stalled, never
		// a quarantine, never an unrecovered panic (RunChaos returning
		// at all proves nothing escaped the supervisor).
		if heavy.Recall > clean.Recall {
			t.Errorf("%s: recall rose from %.2f to %.2f under 50%% drop", name, clean.Recall, heavy.Recall)
		}
		for _, rate := range []float64{0.3, 0.5} {
			p := pts[rate]
			if p.Health != "degraded" {
				t.Errorf("%s at %.0f%%: health %s (%v), want degraded",
					name, 100*rate, p.Health, p.Reasons)
			}
			if p.Health == "stalled" {
				t.Errorf("%s at %.0f%%: stalled — not graceful", name, 100*rate)
			}
			if p.Quarantined != 0 {
				t.Errorf("%s at %.0f%%: %d quarantined subscribers", name, 100*rate, p.Quarantined)
			}
			if p.WireDropped == 0 {
				t.Errorf("%s at %.0f%%: no wire drops recorded", name, 100*rate)
			}
		}
	}

	// The flow-programming pipelines land every rule their app sends,
	// at every drop rate — that is what the retrying programmer buys
	// (a rule is lost only if all 8 sends are, 0.5⁸ ≈ 0.4 % at 50 %).
	// Whether an app sends at all is the acoustic side's luck: a 1 s
	// knock round survives 50 % loss only if all three knocks do. On a
	// clean wire both apps send. Each sent rule is one first attempt
	// plus its retries.
	for _, name := range []string{"portknock", "loadbalance"} {
		for rate, p := range byScenario[name] {
			sent := p.FlowAttempts > 0
			if rate == 0 && !sent {
				t.Errorf("%s at 0%%: no rule sent on a clean wire (notes %q)", name, p.Notes)
			}
			if sent && (!containsInstalled(p.Notes) || p.FlowFailures != 0) {
				t.Errorf("%s at %.0f%%: sent rule not landed: notes %q, %d failures",
					name, 100*rate, p.Notes, p.FlowFailures)
			}
			if sent && p.FlowAttempts != p.FlowRetries+1 {
				t.Errorf("%s at %.0f%%: %d attempts with %d retries for one rule",
					name, 100*rate, p.FlowAttempts, p.FlowRetries)
			}
			if !sent && (containsInstalled(p.Notes) || p.Recall != 0) {
				t.Errorf("%s at %.0f%%: no rule sent, yet notes %q and recall %.2f",
					name, 100*rate, p.Notes, p.Recall)
			}
		}
	}
}

// TestChaosStreamInstallsRules runs the rule-installing pipelines on
// the 10 ms streaming path. Every point must install its rule, except
// one known failure: at 0 % drop the stream path's phantom onsets
// (ROADMAP items 4 and 5) keep the knock from ever completing. That point
// must report recall 0, and the test fails once it passes, so the
// expectation is updated with the fix.
func TestChaosStreamInstallsRules(t *testing.T) {
	cfg := chaosTestConfig()
	cfg.Scenarios = []string{"portknock", "loadbalance"}
	cfg.StreamHop = 0.01
	rep, err := RunChaos(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 6 {
		t.Fatalf("%d points, want 6", len(rep.Points))
	}
	for _, p := range rep.Points {
		knownFailing := p.Scenario == "portknock" && p.DropRate == 0
		switch installed := containsInstalled(p.Notes); {
		case knownFailing && (installed || p.Recall != 0):
			t.Errorf("%s at 0%%: installed=%v recall %.2f; the known stream failure is gone, update this test",
				p.Scenario, installed, p.Recall)
		case !knownFailing && !installed:
			t.Errorf("%s at %.0f%%: notes %q, want installed=true", p.Scenario, 100*p.DropRate, p.Notes)
		}
	}
}

func containsInstalled(notes string) bool {
	const want = "installed=true"
	for i := 0; i+len(want) <= len(notes); i++ {
		if notes[i:i+len(want)] == want {
			return true
		}
	}
	return false
}

// TestChaosDeviceHealthSelfHeals runs the hardware-fault pipeline on a
// clean wire and asserts the whole self-healing arc: the noisy
// microphone's threshold recalibrates, the mic is quarantined while
// deaf and rejoins after the repair, the detuned speaker is re-keyed
// and keeps delivering beats at its commanded frequency, and the point
// ends Degraded — naming the persistent speaker fault — never Stalled.
func TestChaosDeviceHealthSelfHeals(t *testing.T) {
	reg := telemetry.New()
	rep, err := RunChaos(ChaosConfig{
		Seed:      7,
		DropRates: []float64{0},
		DurationS: 12,
		Scenarios: []string{"devicehealth"},
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 1 {
		t.Fatalf("%d points, want 1", len(rep.Points))
	}
	p := rep.Points[0]
	if p.Health != "degraded" {
		t.Errorf("health %s (%v), want degraded", p.Health, p.Reasons)
	}
	speakerReason := false
	for _, r := range p.Reasons {
		if strings.Contains(r, "speaker") {
			speakerReason = true
		}
		if strings.Contains(r, "quarantined") {
			t.Errorf("mic still quarantined at end of run: %q", r)
		}
	}
	if !speakerReason {
		t.Errorf("reasons %v name no speaker fault", p.Reasons)
	}

	// 3 mics then 2 speakers, registration order.
	if len(p.Devices) != 5 {
		t.Fatalf("%d device rows, want 5: %+v", len(p.Devices), p.Devices)
	}
	byName := map[string]core.DeviceHealth{}
	for _, d := range p.Devices {
		byName[d.Kind+"/"+d.Name] = d
	}
	m1 := byName["mic/m1"]
	if m1.Recalibrations == 0 {
		t.Error("m1 never recalibrated its detection threshold")
	}
	if m1.Quarantines == 0 || m1.Rejoins == 0 {
		t.Errorf("m1 quarantines=%d rejoins=%d, want both > 0", m1.Quarantines, m1.Rejoins)
	}
	if m1.Quarantined || m1.State != "healthy" {
		t.Errorf("m1 after repair: state=%s quarantined=%v, want healthy and rejoined",
			m1.State, m1.Quarantined)
	}
	if h := byName["mic/controller"]; h.State != "healthy" || h.Quarantines != 0 {
		t.Errorf("healthy mic controller disturbed: %+v", h)
	}
	s2 := byName["speaker/s2"]
	if s2.State != "detuned" || s2.Rekeys == 0 {
		t.Errorf("s2 state=%s rekeys=%d, want detuned with a re-key", s2.State, s2.Rekeys)
	}
	if s2.DetuneRatio < 1.03 || s2.DetuneRatio > 1.05 {
		t.Errorf("s2 detune ratio %g, want ~1.04", s2.DetuneRatio)
	}
	if s1 := byName["speaker/s1"]; s1.State != "healthy" {
		t.Errorf("healthy speaker s1 classified %s", s1.State)
	}

	// Detection survived both faults: beats kept arriving (rewritten
	// back to the commanded frequency after the re-key).
	if p.GroundTruth < 50 {
		t.Errorf("ground truth %d, want ~79 beats", p.GroundTruth)
	}
	if p.Recall < 0.6 {
		t.Errorf("recall %.2f, want >= 0.6 across the fault window", p.Recall)
	}

	// The mdn_device_* series render and survive exposition-format
	// validation.
	var b strings.Builder
	if err := reg.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	txt := b.String()
	if err := telemetry.ValidateText(strings.NewReader(txt)); err != nil {
		t.Errorf("metrics dump invalid: %v", err)
	}
	for _, want := range []string{
		`mdn_device_state{kind="mic",name="m1"}`,
		`mdn_device_state{kind="speaker",name="s2"}`,
		`mdn_device_noise_floor{mic="m1"}`,
		"mdn_device_transitions_total",
		"mdn_device_recalibrations_total",
		"mdn_device_quarantines_total",
		"mdn_device_rejoins_total",
		"mdn_device_rekeys_total",
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("metrics dump missing %s", want)
		}
	}
}

func TestChaosUnknownScenarioRejected(t *testing.T) {
	_, err := RunChaos(ChaosConfig{Scenarios: []string{"nonsense"}, DurationS: 5}, nil)
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestChaosBadDropRateRejected(t *testing.T) {
	_, err := RunChaos(ChaosConfig{DropRates: []float64{1.5}, DurationS: 5}, nil)
	if err == nil {
		t.Fatal("drop rate 1.5 accepted")
	}
	if _, err := RunChaos(ChaosConfig{DropRates: []float64{math.NaN()}, DurationS: 5}, nil); err == nil {
		t.Error("NaN drop rate accepted")
	}
	for _, d := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := RunChaos(ChaosConfig{DropRates: []float64{0}, DurationS: d}, nil); err == nil {
			t.Errorf("duration %g accepted", d)
		}
	}
}

func TestScenarioFaultsConfigDegradesReportHealth(t *testing.T) {
	cfg := &Config{
		Name:      "faulty",
		Seed:      5,
		DurationS: 12,
		Switches:  []SwitchConfig{{Name: "s1", X: 1}},
		// A fast beat pushes enough messages through the wire for the
		// loss-rate health input to be judged within the short run.
		Apps:   []AppConfig{{Type: "heartbeat", Switch: "s1", PeriodS: 0.3}},
		Faults: &FaultsConfig{DropProb: 0.4},
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Health == nil {
		t.Fatal("report carries no health snapshot")
	}
	if rep.Health.StateName != "degraded" {
		t.Errorf("health = %s (%v), want degraded under 40%% drop",
			rep.Health.StateName, rep.Health.Reasons)
	}
	var sounders int
	for _, w := range rep.Health.Wire {
		if w.Kind == "sounder" {
			sounders++
			if w.Sent == 0 {
				t.Errorf("sounder %s never sent", w.Name)
			}
		}
	}
	if sounders != 1 {
		t.Errorf("%d sounders registered, want 1", sounders)
	}
}

func TestScenarioFaultsConfigValidation(t *testing.T) {
	cfg := &Config{
		Name:      "bad",
		DurationS: 5,
		Switches:  []SwitchConfig{{Name: "s1"}},
		Faults:    &FaultsConfig{DropProb: 2},
	}
	if err := cfg.Validate(); err == nil {
		t.Fatal("drop_prob 2 accepted")
	}
}
