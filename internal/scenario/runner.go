package scenario

import (
	"fmt"
	"sort"

	"mdn/internal/acoustic"
	"mdn/internal/core"
	"mdn/internal/mp"
	"mdn/internal/netsim"
	"mdn/internal/openflow"
	"mdn/internal/splitmix"
	"mdn/internal/telemetry"
)

// micNoiseRMS is every scenario microphone's electronics noise floor
// (linear RMS).
const micNoiseRMS = 0.0005

// linkLatencyS is the one-way latency of a switch-to-switch link, and
// of a host link that sets no latency_ms.
const linkLatencyS = 0.1 / 1000

// orDefault substitutes def for an unset (zero) knob.
func orDefault(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// Report is what a scenario run produces.
type Report struct {
	// Name echoes the scenario name.
	Name string `json:"name"`
	// DurationS is the simulated time covered.
	DurationS float64 `json:"duration_s"`
	// WindowsAnalysed counts controller capture windows.
	WindowsAnalysed uint64 `json:"windows_analysed"`
	// TonesDetected counts raw per-window detections.
	TonesDetected uint64 `json:"tones_detected"`
	// Hosts summarises per-host traffic counters.
	Hosts []HostReport `json:"hosts"`
	// Apps summarises per-application outcomes.
	Apps []AppReport `json:"apps"`
	// Health is the controller's end-of-run health snapshot: verdict,
	// recovered panics, quarantines, and wire fault counters.
	Health *core.HealthSnapshot `json:"health,omitempty"`
	// Metrics is the end-of-run telemetry snapshot: every counter and
	// latency histogram the instrumented pipeline recorded. Counter
	// values are reproducible across runs of the same config; the
	// wall-clock histograms (decode and dispatch time) are not, so the
	// field sits next to Health rather than inside it.
	Metrics *telemetry.Snapshot `json:"metrics,omitempty"`
	// Stream summarises the streaming detection path (set only when
	// Config.Stream).
	Stream *StreamReport `json:"stream,omitempty"`
	// Devices is the device-health monitor's end-of-run snapshot, one
	// row per microphone and watched speaker (set only when the config
	// has extra mics or device faults). Rows are deterministic
	// functions of the simulated run, ordered mics-then-speakers in
	// registration order.
	Devices []core.DeviceHealth `json:"devices,omitempty"`
}

// StreamReport is the streaming path's run summary: hop counts and the
// sim-time sound-to-detection latency percentiles (seconds from a
// tone's arrival at the microphone to the close of the hop that first
// detected it — the quantity the streaming path exists to shrink).
type StreamReport struct {
	HopS          float64 `json:"hop_s"`
	Hops          uint64  `json:"hops"`
	Onsets        uint64  `json:"onsets"`
	CaptureErrors uint64  `json:"capture_errors"`
	DetectP50     float64 `json:"detect_p50_s"`
	DetectP99     float64 `json:"detect_p99_s"`
}

// HostReport is one host's counters.
type HostReport struct {
	Name      string `json:"name"`
	TxPackets uint64 `json:"tx_packets"`
	RxPackets uint64 `json:"rx_packets"`
	TxBytes   uint64 `json:"tx_bytes"`
	RxBytes   uint64 `json:"rx_bytes"`
}

// AppReport is one application's outcome.
type AppReport struct {
	Type   string `json:"type"`
	Switch string `json:"switch"`
	// Events is app-specific: heavy-hitter reports, scan alerts,
	// decoded queue levels, heartbeat alerts, and the rule-installing
	// apps' sent and installed times.
	Events []string `json:"events"`
	// Flow-programming counters of the rule-installing apps
	// (portknock, loadbalance): rules confirmed installed, wire sends,
	// re-sends among them, and rules given up on.
	Installs uint64 `json:"installs,omitempty"`
	Attempts uint64 `json:"attempts,omitempty"`
	Retries  uint64 `json:"retries,omitempty"`
	Failures uint64 `json:"failures,omitempty"`
}

// Balancer is a deployed loadbalance app: its queue monitor decodes
// each window before the load balancer acts on the levels heard.
type Balancer struct {
	*core.QueueMonitor
	LoadBalancer *core.LoadBalancer
}

// HandleWindow feeds the window to the monitor, then the balancer.
func (b Balancer) HandleWindow(start float64, dets []core.Detection) {
	b.QueueMonitor.HandleWindow(start, dets)
	b.LoadBalancer.HandleWindow(start, dets)
}

// World is a built scenario, ready to run once. Its exported fields
// name what a caller may observe: schedule samplers on Sim before Run,
// read hosts, switches and app state after it.
type World struct {
	// Sim is the world's event simulator.
	Sim *netsim.Sim
	// Mic is the controller's primary microphone, at the origin.
	Mic *acoustic.Microphone
	// Hosts and Switches are the topology, by config name.
	Hosts    map[string]*netsim.Host
	Switches map[string]*netsim.Switch
	// Apps are the deployed applications in config order. Heartbeat
	// entries are the exception: they register with one shared
	// *core.Heartbeat, appended last. A loadbalance entry is a
	// Balancer.
	Apps []core.App

	cfg     *Config
	appCfgs []AppConfig // Apps[i]'s config entry
	ctrl    *core.Controller
	voices  map[string]*core.Voice
	fleet   *core.Fleet
	stream  *core.StreamController
	probe   *probe
	ran     bool
}

// Run executes the scenario and returns its report.
func Run(c *Config) (*Report, error) {
	reg := telemetry.New()
	w, err := build(c, reg, nil, 0)
	if err != nil {
		return nil, err
	}
	rep, err := w.Run()
	if err == nil {
		snap := reg.Snapshot()
		rep.Metrics = &snap
	}
	return rep, err
}

// Build validates c and builds its world, unmetered.
func Build(c *Config) (*World, error) { return build(c, nil, nil, 0) }

// build validates c and builds its world, recording telemetry into
// reg (nil runs unmetered). A non-nil probe subscribes after every app
// and receives the voices' emission total at the end of the run. The
// controller's fleet gets fleet workers (0 means GOMAXPROCS).
func build(c *Config, reg *telemetry.Registry, probe *probe, fleet int) (*World, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	sim := netsim.NewSim()
	room := acoustic.NewRoom(44100, c.Seed)
	// Deployment defaults for the acoustic plane: audibility culling
	// at each microphone's own noise floor (tones buried below the
	// electronics cannot change a detection), and a bounded emission
	// history — scenarios only ever consume the moving capture window,
	// so the controller compacts 2 s behind it (Retention, set once
	// the controller exists below).
	room.CullThreshold = acoustic.CullAuto
	mic := room.AddMicrophone("controller", acoustic.Position{}, micNoiseRMS)
	extraMics := make([]*acoustic.Microphone, 0, len(c.Mics))
	for _, mc := range c.Mics {
		extraMics = append(extraMics,
			room.AddMicrophone(mc.Name, acoustic.Position{X: mc.X, Y: mc.Y}, micNoiseRMS))
	}
	plan := core.DefaultPlan()

	// Switches with voices. Each switch's wire faults draw from its own
	// stream, derived from the scenario seed so runs replay exactly.
	sws := make(map[string]*netsim.Switch, len(c.Switches))
	voices := make(map[string]*core.Voice, len(c.Switches))
	faultSeed := make(map[string]int64, len(c.Switches))
	for i, sc := range c.Switches {
		sw := netsim.NewSwitch(sim, sc.Name)
		sp := room.AddSpeaker(sc.Name, acoustic.Position{X: sc.X, Y: sc.Y})
		voices[sc.Name] = core.NewVoice(sim, mp.NewSounder(mp.NewPi(sim, sp, 0.002)))
		sws[sc.Name] = sw
		faultSeed[sc.Name] = c.Seed*1000 + int64(i)
		if c.Faults != nil {
			voices[sc.Name].Sounder().InjectFaults(c.Faults.wire(faultSeed[sc.Name]))
		}
	}

	// Hosts.
	hostsByName := make(map[string]*netsim.Host, len(c.Hosts))
	for _, hc := range c.Hosts {
		h := netsim.NewHost(sim, hc.Name, netsim.MustAddr(hc.Addr))
		rate := hc.RateMbps
		if rate <= 0 {
			rate = 1000
		}
		netsim.Connect(sim, h, 1, sws[hc.Switch], hc.Port, rate*1e6, orDefault(hc.LatencyMs/1000, linkLatencyS), hc.Queue)
		hostsByName[hc.Name] = h
	}
	// Switch-switch links.
	for _, lc := range c.Links {
		rate := lc.RateMbps
		if rate <= 0 {
			rate = 1000
		}
		netsim.Connect(sim, sws[lc.A], lc.APort, sws[lc.B], lc.BPort, rate*1e6, linkLatencyS, lc.Queue)
	}
	// Rules.
	for _, rc := range c.Rules {
		sws[rc.Switch].InstallRule(netRule(rc))
	}

	// The controller's Goertzel watch list starts empty and grows by
	// each app's frequencies below. Every switch's control hop feeds
	// the controller's health snapshot.
	ctrl := core.NewController(sim, mic, core.NewDetector(core.MethodGoertzel, nil))
	if fleet > 0 {
		ctrl.EnableFleet(fleet)
	}
	ctrl.Instrument(reg)
	ctrl.Retention = 2
	room.Instrument(reg)
	for _, sc := range c.Switches {
		ctrl.RegisterVoice(sc.Name, voices[sc.Name])
		voices[sc.Name].Instrument(reg, sc.Name)
	}
	w := &World{Sim: sim, Mic: mic, Hosts: hostsByName, Switches: sws, cfg: c, ctrl: ctrl, voices: voices, probe: probe}
	// A switch running a rule-installing app gets one OpenFlow channel,
	// faulted like its sounder but on a stream of its own.
	channels := make(map[string]*openflow.Channel)
	channel := func(name string) *openflow.Channel {
		if ch := channels[name]; ch != nil {
			return ch
		}
		ch := openflow.NewChannel(sim, sws[name], 0.005)
		if c.Faults != nil {
			ch.InjectFaults(c.Faults.wire(mixSeed(faultSeed[name])))
		}
		ctrl.RegisterChannel(name, ch)
		channels[name] = ch
		return ch
	}
	taps := make(map[string][]func(*netsim.Packet, int))
	// Frequencies each switch's speaker is commanded to emit, collected
	// as applications deploy — the device monitor's speaker fingerprints
	// train on these. beats marks the switches whose speaker sounds
	// periodically (a heartbeat or a queue monitor): only those can be
	// told apart from a dead one by their silence.
	switchFreqs := make(map[string][]float64)
	beats := make(map[string]bool)
	hb := core.NewHeartbeat()
	hbUsed := false
	for appIdx, ac := range c.Apps {
		voice := voices[ac.Switch]
		// Per-app deterministic sketch seed: scenario seed plus the
		// app's position, so two sketch apps never share hash streams.
		sketchSeed := uint64(c.Seed)*splitmix.Gamma + uint64(appIdx) + 1
		var app core.App                  // the controller-side app
		var tap func(*netsim.Packet, int) // the switch-side hook, if any
		switch ac.Type {
		case "heavyhitter":
			hh, err := core.NewHeavyHitter(plan, ac.Switch, voice, ac.Buckets)
			if err != nil {
				return nil, err
			}
			if ac.Threshold > 0 {
				hh.Threshold = ac.Threshold
			}
			if ac.Analytics == "sketch" {
				fc, err := core.NewSketchFlowCounter(sketchEpsilon, sketchDelta, sketchSeed)
				if err != nil {
					return nil, err
				}
				hh.SetFlowCounter(fc)
			}
			hh.Instrument(reg, ac.Switch)
			app, tap = hh, hh.Tap
		case "portscan":
			ps, err := core.NewPortScan(plan, ac.Switch, voice, ac.FirstPort, ac.NumPorts)
			if err != nil {
				return nil, err
			}
			if ac.Threshold > 0 {
				ps.Threshold = ac.Threshold
			}
			if ac.Analytics == "sketch" {
				dc, err := core.NewSketchDistinctCounter(sketchPrecision, sketchSeed)
				if err != nil {
					return nil, err
				}
				ps.SetDistinctCounter(dc)
			}
			ps.Instrument(reg, ac.Switch)
			app, tap = ps, ps.Tap
		case "portknock":
			seq := make([]uint16, ac.NumPorts)
			for i := range seq {
				seq[i] = ac.FirstPort + uint16(i)
			}
			pk, err := core.NewPortKnock(plan, ac.Switch, voice, channel(ac.Switch), seq, flowMod(*ac.Install))
			if err != nil {
				return nil, err
			}
			pk.Programmer().Instrument(reg)
			app, tap = pk, pk.Tap
		case "queuemon", "loadbalance":
			qm, err := core.NewQueueMonitor(plan, sws[ac.Switch], ac.Port, voice)
			if err != nil {
				return nil, err
			}
			qm.Instrument(reg, ac.Switch)
			beats[ac.Switch] = true
			qm.StartSwitchSide(sim, 0.05)
			app = qm
			if ac.Type == "loadbalance" {
				lb := core.NewLoadBalancer(qm, channel(ac.Switch), flowMod(*ac.Install))
				lb.SetErrorLog(ctrl.Errors)
				lb.Programmer().Instrument(reg)
				app = Balancer{qm, lb}
			}
		case "ddos", "superspreader":
			mode := core.ModeDDoSVictim
			if ac.Type == "superspreader" {
				mode = core.ModeSuperspreader
			}
			k := ac.Threshold
			if k <= 0 {
				k = 5
			}
			sd, err := core.NewSpreadDetector(plan, ac.Switch+"/"+ac.Type, voice, mode,
				netsim.MustAddr(ac.Watch), ac.Buckets, k)
			if err != nil {
				return nil, err
			}
			if ac.Analytics == "sketch" {
				dc, err := core.NewSketchDistinctCounter(sketchPrecision, sketchSeed)
				if err != nil {
					return nil, err
				}
				sd.SetDistinctCounter(dc)
			}
			sd.Instrument(reg, ac.Switch)
			app, tap = sd, sd.Tap
		case "heartbeat":
			f, err := hb.Register(plan, ac.Switch, voice)
			if err != nil {
				return nil, err
			}
			if ac.PeriodS > 0 {
				hb.Period = ac.PeriodS
			}
			if _, err := hb.StartDevice(sim, f, 0.1); err != nil {
				return nil, err
			}
			switchFreqs[ac.Switch] = append(switchFreqs[ac.Switch], f)
			beats[ac.Switch] = true
			hbUsed = true
			continue
		}
		if tap != nil {
			taps[ac.Switch] = append(taps[ac.Switch], tap)
		}
		switchFreqs[ac.Switch] = append(switchFreqs[ac.Switch], app.Frequencies()...)
		w.Apps, w.appCfgs = append(w.Apps, app), append(w.appCfgs, ac)
	}
	if hbUsed {
		hb.Instrument(reg, "controller")
		w.Apps, w.appCfgs = append(w.Apps, hb), append(w.appCfgs, AppConfig{Type: "heartbeat", Switch: "*"})
	}
	// An app with an error sink shares the controller's log, so its
	// failures feed the health state.
	for _, app := range w.Apps {
		if sink, ok := app.(interface{ SetErrorLog(*core.ErrorLog) }); ok {
			sink.SetErrorLog(ctrl.Errors)
		}
		ctrl.Detector.AddWatch(app.Frequencies()...)
	}
	for name, fns := range taps {
		fns := fns
		sws[name].Tap = func(p *netsim.Packet, in int) {
			for _, fn := range fns {
				fn(p, in)
			}
		}
	}
	if c.MinAmplitude > 0 {
		ctrl.Detector.MinAmplitude = c.MinAmplitude
	}
	// Device health: extra listening points fan out through the fleet
	// engine; any fault (or any extra mic) arms the monitor so floors
	// recalibrate, deaf mics quarantine and rejoin, and periodically
	// sounding speakers are fingerprinted for re-keying.
	if len(extraMics) > 0 {
		w.fleet = ctrl.EnableFleet(fleet)
		for _, m := range extraMics {
			w.fleet.AddMicrophone(m)
		}
		w.fleet.Instrument(reg)
	}
	if len(extraMics) > 0 || len(c.DeviceFaults) > 0 {
		mon := ctrl.EnableDeviceMonitor()
		for _, df := range c.DeviceFaults {
			applyDeviceFault(room, df)
		}
		// Every periodically sounding speaker is watched, faulted or
		// not: the controller is not told in advance which one will
		// fail. An event-driven speaker is quiet by design, and the
		// monitor would take its silence for death and mute it.
		for _, sc := range c.Switches {
			if beats[sc.Name] {
				mon.WatchSpeaker(sc.Name, voices[sc.Name], switchFreqs[sc.Name]...)
			}
		}
	}
	// Interval apps subscribe themselves and start their interval
	// tickers; the rest subscribe under their type's name.
	type intervalApp interface {
		Start(*core.Controller, float64)
	}
	for _, app := range w.Apps {
		if ia, ok := app.(intervalApp); ok {
			ia.Start(ctrl, 0)
		} else {
			ctrl.SubscribeWindowsNamed(fmt.Sprintf("%T", app), app.HandleWindow)
		}
	}
	if c.Stream {
		hop := c.HopS
		if hop == 0 {
			hop = DefaultHopS
		}
		w.stream = ctrl.StartStream(0, hop)
	} else {
		ctrl.Start(0)
	}
	if probe != nil {
		ctrl.SubscribeWindowsNamed("canary", probe.HandleWindow)
	}

	// Traffic.
	for _, tc := range c.Traffic {
		from := hostsByName[tc.From]
		to := hostsByName[tc.To]
		flow := netsim.FiveTuple{
			Src: from.Addr, Dst: to.Addr,
			SrcPort: tc.SrcPort, DstPort: tc.DstPort, Proto: netsim.ProtoTCP,
		}
		size := tc.Size
		if size <= 0 {
			size = netsim.DefaultPacketSize
		}
		switch tc.Type {
		case "cbr":
			netsim.StartCBR(sim, from, flow, tc.PPS, size, tc.StartS, tc.StopS)
		case "poisson":
			netsim.StartPoisson(sim, from, flow, tc.PPS, size, tc.StartS, tc.StopS, c.Seed+int64(tc.SrcPort))
		case "ramp":
			netsim.StartRamp(sim, from, flow, tc.PPS, tc.endPPS(), size, tc.StartS, tc.StopS)
		case "portscan":
			interval := tc.IntervalMs / 1000
			if interval <= 0 {
				interval = 0.2
			}
			netsim.StartPortScan(sim, from, flow, tc.FirstPort, tc.NumPorts, interval, tc.StartS)
		}
	}

	// Noise.
	for i, nc := range c.Noise {
		var src *acoustic.NoiseSource
		switch nc.Type {
		case "song":
			level := nc.Level
			if level <= 0 {
				level = 0.02
			}
			src = core.PopSongNoise(44100, 5, level, c.Seed+int64(i))
		case "datacenter":
			src = core.DatacenterNoise(44100, 3, c.Seed+int64(i))
		case "office":
			src = core.OfficeNoise(44100, 3, c.Seed+int64(i))
		}
		src.Pos = acoustic.Position{X: nc.X, Y: nc.Y}
		room.AddNoise(src)
	}
	return w, nil
}

// Controller returns the world's controller. A caller may subscribe
// to its windows before Run.
func (w *World) Controller() *core.Controller { return w.ctrl }

// Voice returns the named switch's voice, or nil for an unknown name.
func (w *World) Voice(name string) *core.Voice { return w.voices[name] }

// Run runs the world for the config's duration and returns its report.
// A world runs once.
func (w *World) Run() (*Report, error) {
	if w.ran {
		return nil, fmt.Errorf("scenario: world %q already ran", w.cfg.Name)
	}
	w.ran = true
	c, ctrl := w.cfg, w.ctrl
	w.Sim.RunUntil(c.DurationS)
	if w.fleet != nil {
		w.fleet.Close()
	}
	if w.probe != nil {
		for _, v := range w.voices {
			w.probe.emitted += v.Emitted
		}
	}

	rep := &Report{Name: c.Name, DurationS: c.DurationS}
	rep.WindowsAnalysed = ctrl.Windows
	rep.TonesDetected = ctrl.Detections
	var hostNames []string
	for name := range w.Hosts {
		hostNames = append(hostNames, name)
	}
	sort.Strings(hostNames)
	for _, name := range hostNames {
		h := w.Hosts[name]
		rep.Hosts = append(rep.Hosts, HostReport{
			Name: name, TxPackets: h.TxPackets, RxPackets: h.RxPackets,
			TxBytes: h.TxBytes, RxBytes: h.RxBytes,
		})
	}
	for i, app := range w.Apps {
		ac := w.appCfgs[i]
		ar := AppReport{Type: ac.Type, Switch: ac.Switch}
		switch app := app.(type) {
		case *core.HeavyHitter:
			for _, r := range app.Reports {
				ar.Events = append(ar.Events, fmt.Sprintf(
					"t=%.1fs heavy hitter: bucket %d (%d tone onsets)", r.Time, r.Bucket, r.Count))
			}
		case *core.PortScan:
			for _, a := range app.Alerts {
				ar.Events = append(ar.Events, fmt.Sprintf(
					"t=%.1fs port scan: %d distinct ports", a.Time, a.DistinctPorts))
			}
		case *core.QueueMonitor:
			ar.Events = heardLevels(app)
		case *core.PortKnock:
			ar.Events = ruleEvents("open", app.Opened, app.OpenedAt, app.Installed, app.InstalledAt)
			ar.flowCounters(app.Programmer())
		case Balancer:
			lb := app.LoadBalancer
			ar.Events = append(ruleEvents(ac.Install.Action, lb.Triggered, lb.TriggeredAt, lb.Installed, lb.InstalledAt),
				heardLevels(app.QueueMonitor)...)
			ar.flowCounters(lb.Programmer())
		case *core.Heartbeat:
			for _, a := range app.Alerts {
				ar.Events = append(ar.Events, fmt.Sprintf(
					"t=%.1fs device %s silent (%d missed beats)", a.Time, a.Device, a.MissedBeats))
			}
		case *core.SpreadDetector:
			for _, a := range app.Alerts {
				ar.Events = append(ar.Events, fmt.Sprintf(
					"t=%.1fs %s alert: %d distinct counterpart buckets (k=%d)",
					a.Time, app.Mode, a.Distinct, app.K))
			}
		}
		rep.Apps = append(rep.Apps, ar)
	}
	health := ctrl.Health()
	rep.Health = &health
	if mon := ctrl.DeviceMonitor(); mon != nil {
		rep.Devices = mon.Snapshot()
	}
	if st := w.stream; st != nil {
		rep.Stream = &StreamReport{
			HopS:          st.Hop(),
			Hops:          st.Hops,
			Onsets:        st.Onsets,
			CaptureErrors: st.CaptureErrors,
			DetectP50:     st.DetectLatency().Quantile(0.5),
			DetectP99:     st.DetectLatency().Quantile(0.99),
		}
	}
	return rep, nil
}

// heardLevels names the levels a queue monitor decoded, consecutive
// repeats collapsed.
func heardLevels(qm *core.QueueMonitor) []string {
	var out []string
	for _, l := range qm.HeardLevels() {
		out = append(out, core.LevelName(l))
	}
	return out
}

// ruleEvents lists when a rule-installing app sent its rule and when
// the rule landed on the switch. The rule is named by what it does: a
// port knock's "open", a balancer's install action. Times print to the
// millisecond, so the channel latency between the two shows.
func ruleEvents(rule string, sent bool, sentAt float64, installed bool, installedAt float64) (out []string) {
	if sent {
		out = append(out, fmt.Sprintf("t=%.3fs %s rule sent", sentAt, rule))
	}
	if installed {
		out = append(out, fmt.Sprintf("t=%.3fs %s rule installed", installedAt, rule))
	}
	return out
}

// flowCounters copies an app programmer's counters into its row.
func (ar *AppReport) flowCounters(p *openflow.Programmer) {
	ar.Installs, ar.Attempts, ar.Retries, ar.Failures = p.Installs, p.Attempts, p.Retries, p.Failures
}

// flowMod converts a validated install into the Flow-MOD an app sends.
func flowMod(rc RuleConfig) openflow.FlowMod {
	r := netRule(rc)
	return openflow.FlowMod{Command: openflow.FlowAdd, Priority: int32(r.Priority), Match: r.Match, Action: r.Action}
}

// wire is the fault configuration of one control hop seeded seed.
func (f *FaultsConfig) wire(seed int64) netsim.Faults {
	return netsim.Faults{DropProb: f.DropProb, Seed: seed}
}

// applyDeviceFault schedules one validated degradation ramp (and its
// optional healing ramp) on the acoustic plane.
func applyDeviceFault(room *acoustic.Room, f DeviceFaultConfig) {
	span := f.EndS - f.StartS
	switch f.Kind {
	case FaultMicNoiseRamp:
		m := room.Microphone(f.Device)
		m.ScheduleNoiseRamp(f.StartS, f.EndS, f.Level)
		if f.ClearS != 0 {
			m.ScheduleNoiseRamp(f.ClearS, f.ClearS+span, m.SelfNoiseRMS)
		}
	case FaultMicSensitivity:
		m := room.Microphone(f.Device)
		m.ScheduleSensitivityRamp(f.StartS, f.EndS, f.Level)
		if f.ClearS != 0 {
			m.ScheduleSensitivityRamp(f.ClearS, f.ClearS+span, 1)
		}
	case FaultSpeakerDecay:
		s := room.Speaker(f.Device)
		s.ScheduleAmplitudeDecay(f.StartS, f.EndS, f.Level)
		if f.ClearS != 0 {
			s.ScheduleAmplitudeDecay(f.ClearS, f.ClearS+span, 1)
		}
	case FaultSpeakerDetune:
		s := room.Speaker(f.Device)
		s.ScheduleDetune(f.StartS, f.EndS, f.Level)
		if f.ClearS != 0 {
			s.ScheduleDetune(f.ClearS, f.ClearS+span, 1)
		}
	}
}
