// Package scenario runs Music-Defined Networking deployments
// described declaratively in JSON: an acoustic room, a switch/host
// topology, MDN applications, traffic, and background noise. It is
// the adoption surface of the library — cmd/mdnsim feeds it a file
// and prints the resulting report, and the paper's network figures
// observe the worlds Build returns.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/netip"

	"mdn/internal/core"
	"mdn/internal/netsim"
	"mdn/internal/openflow"
)

// Config is the root of a scenario description.
type Config struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// Seed drives every stochastic component.
	Seed int64 `json:"seed"`
	// DurationS is the simulated run length in seconds.
	DurationS float64 `json:"duration_s"`

	// Switches to create. Every switch gets a speaker at its
	// position and speaks the Music Protocol.
	Switches []SwitchConfig `json:"switches"`
	// Hosts to create, each attached to one switch.
	Hosts []HostConfig `json:"hosts"`
	// Links are extra switch-to-switch connections.
	Links []LinkConfig `json:"links,omitempty"`
	// Rules pre-populate flow tables.
	Rules []RuleConfig `json:"rules,omitempty"`
	// Apps are the MDN applications to deploy.
	Apps []AppConfig `json:"apps"`
	// Traffic generators to run.
	Traffic []TrafficConfig `json:"traffic,omitempty"`
	// Noise sources in the room.
	Noise []NoiseConfig `json:"noise,omitempty"`
	// Mics adds extra listening points: the controller fans each
	// analysis window over every microphone (fleet engine) and merges
	// detections by (time, frequency). The primary microphone
	// "controller" at the origin is always present.
	Mics []MicConfig `json:"mics,omitempty"`
	// DeviceFaults schedules deterministic hardware degradation on
	// named microphones and switch speakers: noise-floor ramps,
	// sensitivity loss, output decay, detuning. Any entry (or any extra
	// microphone) enables the device-health monitor — detection
	// thresholds recalibrate as noise climbs, deaf microphones are
	// quarantined and rejoin when they recover, detuned speakers are
	// re-keyed, dead ones muted — and the report gains a Devices
	// section.
	DeviceFaults []DeviceFaultConfig `json:"device_faults,omitempty"`
	// MinAmplitude overrides the controller's detection floor
	// (linear tone amplitude at the microphone). Deployments with
	// loud ambience calibrate this above the background's tonal
	// components and below the switch tones; 0 keeps the default.
	MinAmplitude float64 `json:"min_amplitude,omitempty"`
	// Faults, when set, arms deterministic wire-fault injection on
	// every switch's MP control hop (the switch→Pi sounder path). The
	// fault stream derives from Seed, so faulty runs replay exactly.
	Faults *FaultsConfig `json:"faults,omitempty"`
	// Stream switches the controller to the streaming low-latency
	// detection path: the analysis window advances by HopS per step
	// instead of a whole window, so tones are detected within one hop
	// of onset. Applications behave identically (they see one window
	// batch per hop); the report gains a Stream section with the
	// sound-to-detection latency percentiles.
	Stream bool `json:"stream,omitempty"`
	// HopS is the streaming hop in seconds (only with Stream). It must
	// divide the 50 ms analysis window into an integer number of
	// integer samples at 44.1 kHz; 0 means DefaultHopS.
	HopS float64 `json:"hop_s,omitempty"`
}

// DefaultHopS is the default streaming hop: 10 ms, one fifth of the
// controller's 50 ms window (the largest even subdivision that is also
// a whole number of samples at 44.1 kHz — 441 per hop).
const DefaultHopS = 0.010

// FaultsConfig describes the injected wire faults of a chaos run.
type FaultsConfig struct {
	// DropProb is the probability a whole message is lost.
	DropProb float64 `json:"drop_prob,omitempty"`
}

// SwitchConfig places one switch (and its speaker) in the room.
type SwitchConfig struct {
	Name string  `json:"name"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

// maxSwitchPorts bounds the port numbers a scenario may use: a
// netsim switch keeps a dense table indexed by port number, so an
// unbounded number would size that table from untrusted input.
const maxSwitchPorts = 1024

// maxOfferedPackets caps the packets a cbr, poisson or ramp generator
// may offer (peak rate × active span), far above the shipped scenarios'
// ~2·10⁴, so a validated config cannot hang the simulator. A scan is
// bounded by its port range instead.
const maxOfferedPackets = 1_000_000

// HostConfig attaches a host to a switch port.
type HostConfig struct {
	Name   string `json:"name"`
	Addr   string `json:"addr"`
	Switch string `json:"switch"`
	Port   int    `json:"port"`
	// Link parameters (defaults: 1000 Mbps, 0.1 ms, unbounded).
	RateMbps  float64 `json:"rate_mbps,omitempty"`
	LatencyMs float64 `json:"latency_ms,omitempty"`
	Queue     int     `json:"queue,omitempty"`
}

// LinkConfig joins two switches over a 0.1 ms link.
type LinkConfig struct {
	A        string  `json:"a"`
	APort    int     `json:"a_port"`
	B        string  `json:"b"`
	BPort    int     `json:"b_port"`
	RateMbps float64 `json:"rate_mbps,omitempty"`
	Queue    int     `json:"queue,omitempty"`
}

// RuleConfig is a flow rule: pre-installed on Switch, or, as an app's
// Install, sent by that app with Switch left empty.
type RuleConfig struct {
	Switch   string `json:"switch"`
	Priority int    `json:"priority"`
	Dst      string `json:"dst,omitempty"`
	DstPort  uint16 `json:"dst_port,omitempty"`
	// Action: output, drop, split, hashsplit.
	Action string `json:"action"`
	Ports  []int  `json:"ports,omitempty"`
}

// AppConfig deploys one MDN application on a switch.
type AppConfig struct {
	// Type: heavyhitter, portscan, queuemon, heartbeat, ddos,
	// superspreader, portknock, loadbalance.
	Type   string `json:"type"`
	Switch string `json:"switch"`

	// heavyhitter, ddos, superspreader.
	Buckets   int `json:"buckets,omitempty"`
	Threshold int `json:"threshold,omitempty"`
	// portscan, portknock: ports first_port … first_port+num_ports-1
	// (for portknock, the secret knock sequence in that order).
	FirstPort uint16 `json:"first_port,omitempty"`
	NumPorts  int    `json:"num_ports,omitempty"`
	// queuemon, loadbalance: the monitored output queue.
	Port int `json:"port,omitempty"`
	// portknock, loadbalance: the rule the app sends to its switch
	// over an OpenFlow channel when the knock completes or congestion
	// is heard. Switch stays empty.
	Install *RuleConfig `json:"install,omitempty"`
	// heartbeat.
	PeriodS float64 `json:"period_s,omitempty"`
	// ddos (the protected host) / superspreader (the suspect host):
	// the address under watch.
	Watch string `json:"watch,omitempty"`

	// Analytics selects the counting store behind the detection apps:
	// "" or "exact" keeps the exact per-interval maps (the accuracy
	// baseline); "sketch" bounds memory with a count-min sketch
	// (heavyhitter; sketchEpsilon, sketchDelta) or a HyperLogLog
	// (portscan, ddos, superspreader; sketchPrecision), seeded from the
	// scenario seed so runs replay exactly.
	Analytics string `json:"analytics,omitempty"`
}

// The sketches behind analytics="sketch" apps: a count-min sketch
// within relative error sketchEpsilon except with probability
// sketchDelta, and a HyperLogLog with 2^sketchPrecision registers.
const (
	sketchEpsilon   = 0.01
	sketchDelta     = 0.01
	sketchPrecision = 12
)

// TrafficConfig runs one generator.
type TrafficConfig struct {
	// Type: cbr, poisson, ramp, portscan.
	Type    string  `json:"type"`
	From    string  `json:"from"`
	To      string  `json:"to"`
	SrcPort uint16  `json:"src_port,omitempty"`
	DstPort uint16  `json:"dst_port,omitempty"`
	PPS     float64 `json:"pps,omitempty"`
	EndPPS  float64 `json:"end_pps,omitempty"` // ramp
	Size    int     `json:"size,omitempty"`
	StartS  float64 `json:"start_s"`
	StopS   float64 `json:"stop_s"`
	// portscan.
	FirstPort  uint16  `json:"first_port,omitempty"`
	NumPorts   int     `json:"num_ports,omitempty"`
	IntervalMs float64 `json:"interval_ms,omitempty"`
}

// MicConfig places one extra controller microphone in the room. Every
// microphone has the controller's micNoiseRMS electronics floor.
type MicConfig struct {
	Name string  `json:"name"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

// Device fault kinds accepted by DeviceFaultConfig.Kind.
const (
	// FaultMicNoiseRamp ramps a microphone's self-noise floor to Level
	// (linear RMS).
	FaultMicNoiseRamp = "mic_noise_ramp"
	// FaultMicSensitivity ramps a microphone's capture gain to Level
	// (1 healthy, 0 stone deaf).
	FaultMicSensitivity = "mic_sensitivity"
	// FaultSpeakerDecay ramps a speaker's output gain to Level
	// (1 healthy, 0 dead).
	FaultSpeakerDecay = "speaker_decay"
	// FaultSpeakerDetune ramps a speaker's emitted/commanded frequency
	// ratio to Level (1 in tune).
	FaultSpeakerDetune = "speaker_detune"
)

// DeviceFaultConfig schedules one hardware degradation ramp. The
// parameter moves linearly from its current value to Level over
// [start_s, end_s); with clear_s set, a second ramp of the same length
// returns it to the healthy value — modelling a repair or a unit swap.
type DeviceFaultConfig struct {
	// Kind is one of the Fault* constants above.
	Kind string `json:"kind"`
	// Device names the target: "controller" or an entry of Mics for
	// the mic kinds, a switch name for the speaker kinds.
	Device string  `json:"device"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	Level  float64 `json:"level"`
	ClearS float64 `json:"clear_s,omitempty"`
}

// NoiseConfig adds a background source.
type NoiseConfig struct {
	// Type: song, datacenter, office.
	Type  string  `json:"type"`
	Level float64 `json:"level,omitempty"` // song peak amplitude
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
}

// Load parses a scenario from JSON and validates it.
func Load(r io.Reader) (*Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("scenario: parsing config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// checkRule validates a rule's match, priority and action: the one
// check behind pre-installed rules and an app's install. Priority
// must fit a Flow-MOD's int32 field.
func checkRule(r RuleConfig) error {
	if r.Dst != "" {
		if err := checkIPv4(r.Dst); err != nil {
			return fmt.Errorf("dst: %w", err)
		}
	}
	if r.Priority < math.MinInt32 || r.Priority > math.MaxInt32 {
		return fmt.Errorf("priority %d outside int32", r.Priority)
	}
	switch r.Action {
	case "output", "split", "hashsplit":
		if len(r.Ports) == 0 {
			return fmt.Errorf("action %q needs ports", r.Action)
		}
	case "drop":
	default:
		return fmt.Errorf("unknown action %q", r.Action)
	}
	if len(r.Ports) > openflow.MaxActionPorts {
		return fmt.Errorf("%d ports, max %d", len(r.Ports), openflow.MaxActionPorts)
	}
	for _, p := range r.Ports {
		if p < 1 || p > maxSwitchPorts {
			return fmt.Errorf("port %d outside 1..%d", p, maxSwitchPorts)
		}
	}
	return nil
}

// installsRules reports whether an app type sends a rule to its switch.
func installsRules(appType string) bool { return appType == "portknock" || appType == "loadbalance" }

// appDevice identifies the frequency-plan device an app allocates its
// tones under. A plan gives each device one frequency set, so two apps
// that claim one device cannot both deploy.
func appDevice(a AppConfig) string {
	if a.Type == "loadbalance" {
		return a.Switch + "/queuemon" // a balancer listens through a queue monitor
	}
	return a.Switch + "/" + a.Type
}

// netRule converts a validated rule config.
func netRule(rc RuleConfig) netsim.Rule {
	rule := netsim.Rule{Priority: rc.Priority}
	if rc.Dst != "" {
		rule.Match.Dst = netsim.MustAddr(rc.Dst)
	}
	rule.Match.DstPort = rc.DstPort
	switch rc.Action {
	case "output":
		rule.Action = netsim.Output(rc.Ports[0])
	case "drop":
		rule.Action = netsim.Drop()
	case "split":
		rule.Action = netsim.Split(rc.Ports...)
	case "hashsplit":
		rule.Action = netsim.HashSplit(rc.Ports...)
	}
	return rule
}

// endPPS is a ramp's final rate: end_pps, or ten times pps when unset.
func (t TrafficConfig) endPPS() float64 {
	if t.EndPPS == 0 {
		return t.PPS * 10
	}
	return t.EndPPS
}

// checkIPv4 accepts IPv4 and IPv4-in-6 addresses, the only ones the
// simulated hosts carry and a Flow-MOD match can hold.
func checkIPv4(s string) error {
	a, err := netip.ParseAddr(s)
	if err != nil {
		return err
	}
	if !a.Is4() && !a.Is4In6() {
		return fmt.Errorf("%s is not an IPv4 address", a)
	}
	return nil
}

// Validate checks referential integrity and parameter sanity.
func (c *Config) Validate() error {
	if c.DurationS <= 0 {
		return fmt.Errorf("scenario: duration_s must be positive")
	}
	if c.MinAmplitude < 0 {
		return fmt.Errorf("scenario: min_amplitude must be non-negative")
	}
	if c.HopS < 0 {
		return fmt.Errorf("scenario: hop_s must be non-negative")
	}
	if c.HopS > 0 && !c.Stream {
		return fmt.Errorf("scenario: hop_s requires stream")
	}
	if c.HopS > 0 {
		// The runner deploys a 50 ms window at 44.1 kHz.
		if err := core.CheckStreamHop(core.DefaultWindow, 44100, c.HopS); err != nil {
			return fmt.Errorf("scenario: hop_s: %w", err)
		}
	}
	if len(c.Switches) == 0 {
		return fmt.Errorf("scenario: at least one switch required")
	}
	switches := map[string]bool{}
	for _, s := range c.Switches {
		if s.Name == "" {
			return fmt.Errorf("scenario: switch with empty name")
		}
		if switches[s.Name] {
			return fmt.Errorf("scenario: duplicate switch %q", s.Name)
		}
		switches[s.Name] = true
	}
	type swPort struct {
		sw   string
		port int
	}
	var plugs []swPort // every switch port a host or link occupies
	hosts := map[string]bool{}
	for _, h := range c.Hosts {
		if h.Name == "" {
			return fmt.Errorf("scenario: host with empty name")
		}
		if hosts[h.Name] {
			return fmt.Errorf("scenario: duplicate host %q", h.Name)
		}
		hosts[h.Name] = true
		if !switches[h.Switch] {
			return fmt.Errorf("scenario: host %q references unknown switch %q", h.Name, h.Switch)
		}
		if err := checkIPv4(h.Addr); err != nil {
			return fmt.Errorf("scenario: host %q address: %w", h.Name, err)
		}
		if h.RateMbps < 0 || h.LatencyMs < 0 || h.Queue < 0 {
			return fmt.Errorf("scenario: host %q rate_mbps, latency_ms and queue must be non-negative", h.Name)
		}
		plugs = append(plugs, swPort{h.Switch, h.Port})
	}
	for _, l := range c.Links {
		if !switches[l.A] || !switches[l.B] {
			return fmt.Errorf("scenario: link %s<->%s references unknown switch", l.A, l.B)
		}
		if l.RateMbps < 0 || l.Queue < 0 {
			return fmt.Errorf("scenario: link %s<->%s rate_mbps and queue must be non-negative", l.A, l.B)
		}
		plugs = append(plugs, swPort{l.A, l.APort}, swPort{l.B, l.BPort})
	}
	used := map[swPort]bool{}
	for _, p := range plugs {
		if p.port < 1 || p.port > maxSwitchPorts {
			return fmt.Errorf("scenario: switch %q port %d outside 1..%d", p.sw, p.port, maxSwitchPorts)
		}
		if used[p] {
			return fmt.Errorf("scenario: switch %q port %d connected twice", p.sw, p.port)
		}
		used[p] = true
	}
	for _, r := range c.Rules {
		if !switches[r.Switch] {
			return fmt.Errorf("scenario: rule references unknown switch %q", r.Switch)
		}
		if err := checkRule(r); err != nil {
			return fmt.Errorf("scenario: rule on %q: %w", r.Switch, err)
		}
	}
	devices := map[string]bool{}
	hbPeriod := 0.0 // the first heartbeat entry's period
	for i, a := range c.Apps {
		if !switches[a.Switch] {
			return fmt.Errorf("scenario: app %d references unknown switch %q", i, a.Switch)
		}
		d := appDevice(a)
		if devices[d] {
			return fmt.Errorf("scenario: app %d (%s) claims device %q, which an earlier app already holds", i, a.Type, d)
		}
		devices[d] = true
		if a.Threshold < 0 || a.PeriodS < 0 {
			return fmt.Errorf("scenario: app %d threshold and period_s must be non-negative", i)
		}
		if installsRules(a.Type) != (a.Install != nil) {
			return fmt.Errorf("scenario: app %d: portknock and loadbalance, and only they, take an install", i)
		}
		if a.Install != nil {
			if a.Install.Switch != "" {
				return fmt.Errorf("scenario: app %d install names a switch; it goes to the app's own", i)
			}
			if err := checkRule(*a.Install); err != nil {
				return fmt.Errorf("scenario: app %d install: %w", i, err)
			}
		}
		switch a.Type {
		case "heavyhitter":
			if a.Buckets <= 0 {
				return fmt.Errorf("scenario: heavyhitter on %q needs buckets", a.Switch)
			}
		case "portscan", "portknock":
			if a.NumPorts <= 0 {
				return fmt.Errorf("scenario: %s on %q needs num_ports", a.Type, a.Switch)
			}
			if int(a.FirstPort)+a.NumPorts-1 > math.MaxUint16 {
				return fmt.Errorf("scenario: %s on %q ports run past 65535", a.Type, a.Switch)
			}
		case "queuemon", "loadbalance":
			if a.Port <= 0 || a.Port > maxSwitchPorts {
				return fmt.Errorf("scenario: %s on %q needs a port in 1..%d", a.Type, a.Switch, maxSwitchPorts)
			}
		case "heartbeat":
			if a.PeriodS != 0 && a.PeriodS < core.VoiceMinGap {
				return fmt.Errorf("scenario: heartbeat on %q period_s %g below the voice's %g s minimum gap",
					a.Switch, a.PeriodS, core.VoiceMinGap)
			}
			// Every heartbeat entry joins one monitor, whose miss check
			// runs at a single period.
			p := orDefault(a.PeriodS, core.DefaultHeartbeatPeriod)
			if hbPeriod != 0 && p != hbPeriod {
				return fmt.Errorf("scenario: heartbeat on %q beats every %g s, an earlier heartbeat every %g s; heartbeats share one period",
					a.Switch, p, hbPeriod)
			}
			hbPeriod = p
		case "ddos", "superspreader":
			if a.Buckets <= 0 {
				return fmt.Errorf("scenario: %s on %q needs buckets", a.Type, a.Switch)
			}
			if err := checkIPv4(a.Watch); err != nil {
				return fmt.Errorf("scenario: %s on %q needs a valid watch address: %w", a.Type, a.Switch, err)
			}
		default:
			return fmt.Errorf("scenario: unknown app type %q", a.Type)
		}
		switch a.Analytics {
		case "", "exact", "sketch":
		default:
			return fmt.Errorf("scenario: app %d unknown analytics %q", i, a.Analytics)
		}
	}
	for i, tr := range c.Traffic {
		if !hosts[tr.From] {
			return fmt.Errorf("scenario: traffic %d from unknown host %q", i, tr.From)
		}
		if !hosts[tr.To] {
			return fmt.Errorf("scenario: traffic %d to unknown host %q", i, tr.To)
		}
		if tr.EndPPS < 0 || tr.Size < 0 || tr.IntervalMs < 0 {
			return fmt.Errorf("scenario: traffic %d end_pps, size and interval_ms must be non-negative", i)
		}
		switch tr.Type {
		case "cbr", "poisson", "ramp":
			if tr.PPS <= 0 {
				return fmt.Errorf("scenario: traffic %d needs pps", i)
			}
			if tr.StopS <= tr.StartS {
				return fmt.Errorf("scenario: traffic %d has stop <= start", i)
			}
			rate := tr.PPS
			if tr.Type == "ramp" {
				rate = math.Max(rate, tr.endPPS())
			}
			if offered := rate * (math.Min(tr.StopS, c.DurationS) - tr.StartS); offered > maxOfferedPackets {
				return fmt.Errorf("scenario: traffic %d offers %.3g packets, max %d", i, offered, maxOfferedPackets)
			}
		case "portscan":
			// A scan's end is first_port + num_ports probes; stop_s
			// is not used.
			if tr.NumPorts <= 0 {
				return fmt.Errorf("scenario: traffic %d needs num_ports", i)
			}
			if int(tr.FirstPort)+tr.NumPorts-1 > math.MaxUint16 {
				return fmt.Errorf("scenario: traffic %d ports run past 65535", i)
			}
		default:
			return fmt.Errorf("scenario: unknown traffic type %q", tr.Type)
		}
	}
	for i, n := range c.Noise {
		switch n.Type {
		case "song", "datacenter", "office":
		default:
			return fmt.Errorf("scenario: unknown noise type %q (entry %d)", n.Type, i)
		}
		if n.Level < 0 {
			return fmt.Errorf("scenario: noise %d level must be non-negative", i)
		}
	}
	mics := map[string]bool{"controller": true}
	for _, mc := range c.Mics {
		if mc.Name == "" {
			return fmt.Errorf("scenario: mic with empty name")
		}
		if mics[mc.Name] {
			return fmt.Errorf("scenario: duplicate mic %q", mc.Name)
		}
		mics[mc.Name] = true
	}
	for i, df := range c.DeviceFaults {
		switch df.Kind {
		case FaultMicNoiseRamp, FaultMicSensitivity:
			if !mics[df.Device] {
				return fmt.Errorf("scenario: device fault %d references unknown mic %q", i, df.Device)
			}
		case FaultSpeakerDecay, FaultSpeakerDetune:
			if !switches[df.Device] {
				return fmt.Errorf("scenario: device fault %d references unknown switch %q", i, df.Device)
			}
		default:
			return fmt.Errorf("scenario: unknown device fault kind %q (entry %d)", df.Kind, i)
		}
		if df.StartS < 0 || df.EndS <= df.StartS {
			return fmt.Errorf("scenario: device fault %d needs 0 <= start_s < end_s", i)
		}
		if df.Level < 0 {
			return fmt.Errorf("scenario: device fault %d level must be non-negative", i)
		}
		if df.Kind == FaultSpeakerDetune && df.Level <= 0 {
			return fmt.Errorf("scenario: device fault %d detune ratio must be positive", i)
		}
		if df.ClearS != 0 && df.ClearS < df.EndS {
			return fmt.Errorf("scenario: device fault %d clear_s precedes end_s", i)
		}
	}
	// The acoustic layer requires ramps on one parameter to be
	// scheduled forward; a config must not be able to trip that panic.
	lastRamp := map[string]float64{}
	for i, df := range c.DeviceFaults {
		key := df.Kind + "\x00" + df.Device
		end := df.EndS
		if df.ClearS != 0 {
			end = df.ClearS + (df.EndS - df.StartS)
		}
		if df.StartS < lastRamp[key] {
			return fmt.Errorf("scenario: device fault %d overlaps an earlier %s ramp on %q", i, df.Kind, df.Device)
		}
		lastRamp[key] = end
	}
	if f := c.Faults; f != nil && !(f.DropProb >= 0 && f.DropProb <= 1) {
		return fmt.Errorf("scenario: faults.drop_prob %g outside [0, 1]", f.DropProb)
	}
	return nil
}
