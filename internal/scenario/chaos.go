package scenario

import (
	"fmt"
	"math"
	"strings"

	"mdn/internal/core"
	"mdn/internal/telemetry"
)

// Chaos is the supervised runtime's proving ground: it runs full
// end-to-end MDN pipelines — knock → FSM → flow install, heavy-hitter
// telemetry, congestion-driven load balancing, heartbeat liveness and
// device self-healing — under a sweep of injected wire-fault rates, and
// reports each point's recall, health verdict, recovered panics, and
// retry counters. The paper's Section 7 asks how the acoustic channel
// behaves as conditions worsen; the harness answers the control-plane
// half: detection decays gracefully (recall falls, nothing crashes) and
// the controller's Health snapshot names the degradation.
//
// Every pipeline is a scenario Config built as `mdnsim -f` builds one;
// the modem's attaches its transmitter and receiver to the built world
// (modem.go). Every run is seeded; the same ChaosConfig produces a
// byte-identical ChaosReport, so sweeps are replayable evidence.

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
	// GroundTruth counts the events the pipeline was offered (tones the
	// switches commanded, or modem frames); Detected counts those it
	// acted on (onsets the controller confirmed, or frames delivered);
	// Recall is their ratio. A pipeline whose app installs rules
	// detects nothing unless its rule was installed: onsets that never
	// reach the switch did not do the pipeline's job.
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
	// Validate the whole grid before any point runs: a bad cell must
	// fail the sweep up front, not mid-flight with half the pool busy.
	for _, name := range names {
		if name == "modem" {
			continue
		}
		if _, ok := chaosPipelines[name]; !ok {
			return nil, fmt.Errorf("scenario: unknown chaos scenario %q (have %s)",
				name, strings.Join(ChaosScenarioNames, ", "))
		}
		if err := chaosConfig(name, cfg.Seed, 0, dur, cfg.StreamHop).Validate(); err != nil {
			return nil, fmt.Errorf("scenario: chaos %s at %g s: %w", name, dur, err)
		}
	}
	pts, err := sweep(cfg.Seed, cfg.Workers, len(names), len(drops), func(r, c int, seed int64, fleet int) ChaosPoint {
		var pt ChaosPoint
		if names[r] == "modem" {
			pt = chaosModem(reg, seed, drops[c], dur, cfg.StreamHop, fleet)
		} else {
			pt = chaosRun(chaosConfig(names[r], seed, drops[c], dur, cfg.StreamHop), reg, fleet)
		}
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

// probe is the chaos sweep's subscriber in every point's world: a
// canary that panics on its first two windows, below the quarantine
// threshold (the panics age out of the "recent errors" health input
// long before the run ends), and, given an onset filter, a counter of
// the onsets the controller confirms. The runner adds the tones the
// switches commanded.
type probe struct {
	onsets   *core.OnsetFilter
	windows  int
	detected int
	emitted  uint64
}

func (p *probe) HandleWindow(_ float64, dets []core.Detection) {
	if p.onsets != nil {
		p.detected += len(p.onsets.Step(dets))
	}
	p.windows++
	if p.windows <= 2 {
		panic("chaos canary")
	}
}

// chaosPipelines builds each control pipeline's world for a point of
// dur simulated seconds. "modem" is not among them: its testbed has no
// apps, and the modem attaches after the build (modem.go).
var chaosPipelines = map[string]func(dur float64) *Config{
	// Knock rounds, one a second, three knocks 0.3 s apart; the first
	// accepted round installs the open rule.
	"portknock": func(dur float64) *Config {
		c := twoHosts(dur)
		c.Apps = []AppConfig{{Type: "portknock", Switch: "s1", FirstPort: 7001, NumPorts: 3,
			Install: &RuleConfig{Priority: 10, Dst: "10.0.0.2", DstPort: 8080, Action: "output", Ports: []int{2}}}}
		for t := 1.0; t+0.6 < dur-1; t += 1.0 {
			c.Traffic = append(c.Traffic, TrafficConfig{Type: "portscan", From: "h1", To: "h2",
				SrcPort: 40001, FirstPort: 7001, NumPorts: 3, IntervalMs: 300, StartS: t})
		}
		return c
	},
	// One hot flow at 5 pps, the Voice's per-frequency rate, flagged
	// on 2 onsets per 1 s interval.
	"heavyhitter": func(dur float64) *Config {
		c := twoHosts(dur)
		c.Apps = []AppConfig{{Type: "heavyhitter", Switch: "s1", Buckets: 4, Threshold: 2}}
		c.Traffic = []TrafficConfig{{Type: "cbr", From: "h1", To: "h2", SrcPort: 1111, DstPort: 80,
			PPS: 5, StartS: 1, StopS: dur - 1}}
		return c
	},
	// A 1.8 Mbps flow into a 1 Mbps port congests its queue within
	// seconds; the balancer's split onto a second 1 Mbps port drains it.
	"loadbalance": func(dur float64) *Config {
		c := twoHosts(dur)
		c.Hosts[1].RateMbps, c.Hosts[1].Queue = 1, 400
		c.Hosts = append(c.Hosts, HostConfig{Name: "h3", Addr: "10.0.0.3", Switch: "s1", Port: 3, RateMbps: 1, Queue: 400})
		c.Rules = []RuleConfig{{Switch: "s1", Priority: 1, Dst: "10.0.0.2", Action: "output", Ports: []int{2}}}
		c.Apps = []AppConfig{{Type: "loadbalance", Switch: "s1", Port: 2,
			Install: &RuleConfig{Priority: 10, Dst: "10.0.0.2", Action: "split", Ports: []int{2, 3}}}}
		c.Traffic = []TrafficConfig{{Type: "cbr", From: "h1", To: "h2", SrcPort: 1, DstPort: 2,
			PPS: 150, Size: 1500, StartS: 0.5, StopS: dur - 1}}
		return c
	},
	// A fast beat, so even short points cross the wire sample floor.
	"heartbeat": func(dur float64) *Config {
		c := twoHosts(dur)
		c.Apps = []AppConfig{{Type: "heartbeat", Switch: "s1", PeriodS: 0.3}}
		return c
	},
	// Three microphones hear two beating speakers while m1's noise
	// ramps up until a repair at half time and s2 drifts 4 % off pitch
	// for good: the point ends Degraded, never Stalled.
	"devicehealth": func(dur float64) *Config {
		c := twoHosts(dur)
		c.Switches = append(c.Switches, SwitchConfig{Name: "s2", X: -1})
		c.Mics = []MicConfig{{Name: "m1", Y: 1}, {Name: "m2", Y: 2}}
		c.Apps = []AppConfig{
			{Type: "heartbeat", Switch: "s1", PeriodS: 0.3},
			{Type: "heartbeat", Switch: "s2", PeriodS: 0.3},
		}
		// float64() rounds each product before its sum, so arm64
		// computes the same end times as amd64.
		noiseAt, detuneAt := 0.15*dur, 0.2*dur
		c.DeviceFaults = []DeviceFaultConfig{
			{Kind: FaultMicNoiseRamp, Device: "m1", StartS: noiseAt, EndS: float64(noiseAt) + 0.5, Level: 0.5, ClearS: 0.5 * dur},
			{Kind: FaultSpeakerDetune, Device: "s2", StartS: detuneAt, EndS: float64(detuneAt) + 0.5, Level: 1.04},
		}
		return c
	},
}

// twoHosts is the pipelines' common world: switch s1 one metre from
// the controller's microphone, with hosts h1 and h2 on ports 1 and 2.
func twoHosts(dur float64) *Config {
	return &Config{
		DurationS: dur,
		Switches:  []SwitchConfig{{Name: "s1", X: 1}},
		Hosts: []HostConfig{
			{Name: "h1", Addr: "10.0.0.1", Switch: "s1", Port: 1},
			{Name: "h2", Addr: "10.0.0.2", Switch: "s1", Port: 2},
		},
	}
}

// chaosConfig is the named control pipeline at one grid point.
func chaosConfig(name string, seed int64, drop, dur, streamHop float64) *Config {
	c := chaosPipelines[name](dur)
	c.Name = name
	c.Seed = seed
	c.Faults = &FaultsConfig{DropProb: drop}
	c.Stream, c.HopS = streamHop > 0, streamHop
	return c
}

// chaosRun measures one control pipeline. Recall is the same for every
// pipeline: the onsets the controller confirmed over the tones the
// switches commanded.
func chaosRun(c *Config, reg *telemetry.Registry, fleet int) ChaosPoint {
	p := &probe{onsets: core.NewOnsetFilter()}
	w, err := build(c, reg, p, fleet)
	var rep *Report
	if err == nil {
		rep, err = w.Run()
	}
	if err != nil {
		return ChaosPoint{Notes: "setup failed: " + err.Error()}
	}
	pt := ChaosPoint{GroundTruth: int(p.emitted), Detected: p.detected, Devices: rep.Devices}
	pt.setHealth(*rep.Health)
	var notes []string
	for _, a := range rep.Apps {
		note := fmt.Sprintf("%s events=%d", a.Type, len(a.Events))
		if installsRules(a.Type) {
			note += fmt.Sprintf(" installed=%v", a.Installs > 0)
			if a.Installs == 0 {
				pt.Detected = 0
			}
		}
		notes = append(notes, note)
		pt.FlowAttempts += a.Attempts
		pt.FlowRetries += a.Retries
		pt.FlowFailures += a.Failures
	}
	if len(rep.Devices) > 0 {
		var recal, quar, rejoin, rekey uint64
		for _, d := range rep.Devices {
			recal, quar, rejoin, rekey = recal+d.Recalibrations, quar+d.Quarantines, rejoin+d.Rejoins, rekey+d.Rekeys
		}
		notes = append(notes, fmt.Sprintf("recal=%d quarantine=%d rejoin=%d rekey=%d", recal, quar, rejoin, rekey))
	}
	pt.Notes = strings.Join(notes, "; ")
	return pt
}

// setHealth fills the point's health verdict and wire counters.
func (pt *ChaosPoint) setHealth(h core.HealthSnapshot) {
	pt.Health = h.StateName
	pt.Reasons = h.Reasons
	pt.RecoveredPanics = h.HandlerPanics
	pt.Quarantined = len(h.Quarantined)
	for _, w := range h.Wire {
		pt.WireSent += w.Sent
		pt.WireDropped += w.Dropped
		pt.WireCorrupted += w.Corrupted
	}
}
