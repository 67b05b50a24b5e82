package mdn

import (
	"net/netip"

	"mdn/internal/acoustic"
	"mdn/internal/core"
	"mdn/internal/modem"
	"mdn/internal/mp"
	"mdn/internal/netsim"
	"mdn/internal/openflow"
	"mdn/internal/sketch"
	"mdn/internal/telemetry"
)

// Re-exported core types: the public API of the library.
type (
	// FrequencyPlan hands out non-overlapping tone sets to devices.
	FrequencyPlan = core.FrequencyPlan
	// Detector finds watched frequencies in capture windows.
	Detector = core.Detector
	// Detection is one observed tone.
	Detection = core.Detection
	// Method selects Goertzel or FFT analysis.
	Method = core.Method
	// OnsetFilter confirms tone onsets across windows. The onsets its
	// Step returns are filter-owned scratch, valid until the next Step
	// (the same rule as Detector.Detect); copy them to keep them.
	OnsetFilter = core.OnsetFilter
	// Controller is the MDN controller event loop.
	Controller = core.Controller
	// Voice is a switch's rate-limited tone emitter.
	Voice = core.Voice
	// FSM is the generic state machine of Section 4.
	FSM = core.FSM
	// PortKnock is the Section 4 authentication application.
	PortKnock = core.PortKnock
	// HeavyHitter is the Section 5 monitoring application.
	HeavyHitter = core.HeavyHitter
	// PortScan is the Section 5 security application.
	PortScan = core.PortScan
	// QueueMonitor is the Section 6 congestion monitor.
	QueueMonitor = core.QueueMonitor
	// LoadBalancer is the Section 6 traffic-engineering application.
	LoadBalancer = core.LoadBalancer
	// FanMonitor is the Section 7 passive failure detector.
	FanMonitor = core.FanMonitor
	// SpreadDetector is the Section 5 open problem: k-superspreader
	// and DDoS-victim detection.
	SpreadDetector = core.SpreadDetector
	// SpreadMode selects superspreader or DDoS-victim semantics.
	SpreadMode = core.SpreadMode
	// Relay is the Section 8 multi-hop sound relay.
	Relay = core.Relay
	// CongestionController is tone-driven AIMD rate control.
	CongestionController = core.CongestionController
	// MelodyCodec encodes bytes as tone sequences.
	MelodyCodec = core.MelodyCodec
	// MicArray attributes detections across several microphones.
	MicArray = core.MicArray
	// ArrayDetection is a zone-attributed detection.
	ArrayDetection = core.ArrayDetection
	// Manager assembles a controller and a set of applications.
	Manager = core.Manager
	// App is the controller-side interface of an MDN application.
	App = core.App
	// FanDiagnosis classifies a monitored fan's state.
	FanDiagnosis = core.FanDiagnosis
	// FanState enumerates recognisable fan anomalies.
	FanState = core.FanState
	// Heartbeat is the out-of-band device liveness monitor.
	Heartbeat = core.Heartbeat
	// HeartbeatAlert reports a device gone silent.
	HeartbeatAlert = core.HeartbeatAlert
	// KnockGenerator derives time-rotating knock sequences from a
	// shared secret (TOTP-style).
	KnockGenerator = core.KnockGenerator
	// HealthState is the controller's coarse health verdict.
	HealthState = core.HealthState
	// HealthSnapshot is one observation of controller health.
	HealthSnapshot = core.HealthSnapshot
	// ErrorLog is the bounded application-error history.
	ErrorLog = core.ErrorLog
	// AppError is one recorded application failure.
	AppError = core.AppError
	// SubscriberStatus reports one supervised subscriber.
	SubscriberStatus = core.SubscriberStatus
	// WireCounters aggregates one wire's sent/dropped/corrupted counts.
	WireCounters = core.WireCounters
	// Fleet is the controller's detection engine: it fans each
	// analysis window, batch or streamed, over its microphones on a
	// worker pool of detector clones, merging detections
	// deterministically (see Controller.EnableFleet).
	Fleet = core.Fleet
	// StreamController is the low-latency detection path: the
	// controller's fleet run once per hop instead of once per window,
	// each microphone's ring carrying the window − hop overlap, plus
	// onset dedup on top (see Controller.StartStream).
	StreamController = core.StreamController
	// EdgeDedup collapses per-window tone presence into rising-edge
	// onsets with hysteresis.
	EdgeDedup = core.EdgeDedup
	// DeviceMonitor is the self-healing device layer: it fingerprints
	// microphones and speakers from the windows the controller already
	// analyses, recalibrates drifting noise floors, quarantines deaf
	// microphones, re-keys detuned speakers and mutes dead ones (see
	// Controller.EnableDeviceMonitor).
	DeviceMonitor = core.DeviceMonitor
	// DeviceHealth is one device's row in a health snapshot or chaos
	// report.
	DeviceHealth = core.DeviceHealth
	// DeviceState classifies one monitored device.
	DeviceState = core.DeviceState
	// MicStats is a read-only snapshot of one microphone's effective
	// degradation parameters (see acoustic.Room.Microphone).
	MicStats = acoustic.MicStats
	// ModemConfig parameterises the acoustic data channel: symbol
	// period, lanes, FEC scheme.
	ModemConfig = modem.Config
	// ModemBand is a modem's allocated tone set (sync pilots plus
	// per-bank data tones).
	ModemBand = modem.Band
	// ModemTransmitter frames payload bytes and schedules their tones
	// through a switch voice.
	ModemTransmitter = modem.Transmitter
	// ModemReceiver demodulates controller windows back into
	// CRC-verified frames.
	ModemReceiver = modem.Receiver
	// ModemFrame is one delivered payload with its sequence number and
	// delivery time.
	ModemFrame = modem.Frame
	// ModemCorruptor is a seeded symbol-corruption fault injector for
	// the transmit path.
	ModemCorruptor = modem.Corruptor
	// ModemFEC is a pluggable forward-error-correction scheme for the
	// frame body.
	ModemFEC = modem.FEC
	// ModemFECNone is the identity scheme (CRC detection only).
	ModemFECNone = modem.FECNone
	// ModemFECHamming is interleaved Hamming(7,4) (rate 4/7, corrects
	// burst-confined corruption).
	ModemFECHamming = modem.FECHamming
	// ModemFECRS is Reed-Solomon over GF(256) (corrects Parity/2
	// corrupted bytes per block at any positions).
	ModemFECRS = modem.FECRS
	// CountMin is a count-min sketch with optional conservative
	// update: frequency estimates within epsilon*N at confidence
	// 1-delta in fixed memory.
	CountMin = sketch.CountMin
	// HyperLogLog estimates distinct counts in 2^precision registers.
	HyperLogLog = sketch.HyperLogLog
	// TopK is a space-saving heavy-hitter tracker over k entries.
	TopK = sketch.TopK
	// FlowCounter is the pluggable per-key frequency store behind
	// HeavyHitter (exact map or count-min sketch).
	FlowCounter = core.FlowCounter
	// DistinctCounter is the pluggable distinct-key store behind
	// PortScan and SpreadDetector (exact set or HyperLogLog).
	DistinctCounter = core.DistinctCounter
	// FlowSet paces many synthetic flows from one host through a
	// single scheduler event (see netsim.StartFlowSet).
	FlowSet = netsim.FlowSet
	// FlowSetConfig parameterises a FlowSet: specs, window, seed,
	// CBR-vs-Poisson pacing.
	FlowSetConfig = netsim.FlowSetConfig
	// FlowSpec is one synthetic flow: five-tuple, rate, packet size.
	FlowSpec = netsim.FlowSpec
	// Programmer installs flow rules with retry and idempotency.
	Programmer = openflow.Programmer
	// MetricsRegistry names and aggregates pipeline metrics.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is a point-in-time copy of a registry, with
	// Prometheus-text rendering.
	MetricsSnapshot = telemetry.Snapshot
)

// Controller health states, in degradation order.
const (
	// Healthy: windows flowing, no quarantines, no recent errors.
	Healthy = core.Healthy
	// Degraded: operating with reduced fidelity (see Reasons).
	Degraded = core.Degraded
	// Stalled: the control loop is no longer acting on the network.
	Stalled = core.Stalled
)

// Device states (see DeviceMonitor). Microphones move between
// Healthy, Drifting and Deaf; speakers between Healthy, Detuned and
// Silent.
const (
	DeviceHealthy  = core.DeviceHealthy
	DeviceDrifting = core.DeviceDrifting
	DeviceDeaf     = core.DeviceDeaf
	DeviceDetuned  = core.DeviceDetuned
	DeviceSilent   = core.DeviceSilent
)

// Spread-detection modes.
const (
	// ModeSuperspreader flags a source contacting many destinations.
	ModeSuperspreader = core.ModeSuperspreader
	// ModeDDoSVictim flags a destination contacted by many sources.
	ModeDDoSVictim = core.ModeDDoSVictim
)

// Detection methods.
const (
	// MethodGoertzel checks each watched frequency with a Goertzel
	// filter.
	MethodGoertzel = core.MethodGoertzel
	// MethodFFT reads watched bins from one windowed FFT.
	MethodFFT = core.MethodFFT
)

// Queue levels (Section 6 thresholds).
const (
	// LevelLow is an uncongested queue (<25 packets, 500 Hz).
	LevelLow = core.LevelLow
	// LevelMid is a filling queue (25–75 packets, 600 Hz).
	LevelMid = core.LevelMid
	// LevelHigh is a congested queue (>75 packets, 700 Hz).
	LevelHigh = core.LevelHigh
)

// DefaultSpacing is the paper's ~20 Hz minimum frequency distance.
const DefaultSpacing = core.DefaultSpacing

// DefaultStride is the recommended slot stride for same-window tones.
const DefaultStride = core.DefaultStride

// ErrCompacted reports a capture request for samples older than the
// room's compaction horizon (see Controller.Retention and
// Controller.AnalyseOnce): the emissions that would have sounded there
// have been dropped, so the window is unavailable, not quiet. Test
// with errors.Is.
var ErrCompacted = acoustic.ErrCompacted

// CullAuto, assigned to Room.CullThreshold (see Testbed.EnableCulling),
// turns on audibility culling with each microphone's own noise floor
// as its threshold: emissions received below a microphone's
// SelfNoiseRMS are skipped instead of mixed. Captures stay bit-exact
// for every emission at or above the floor.
const CullAuto = acoustic.CullAuto

// NewFrequencyPlan creates a plan over [minHz, maxHz] with the given
// slot spacing.
func NewFrequencyPlan(minHz, maxHz, spacing float64) *FrequencyPlan {
	return core.NewFrequencyPlan(minHz, maxHz, spacing)
}

// DefaultPlan returns the 400 Hz – 8 kHz plan at 20 Hz spacing.
func DefaultPlan() *FrequencyPlan { return core.DefaultPlan() }

// NewDetector builds a detector watching the given frequencies.
func NewDetector(method Method, watch []float64) *Detector {
	return core.NewDetector(method, watch)
}

// NewOnsetFilter returns a 2-window-confirmation onset filter.
func NewOnsetFilter() *OnsetFilter { return core.NewOnsetFilter() }

// SequenceFSM builds the linear machine accepting exactly the given
// symbol sequence.
func SequenceFSM(symbols []string) *FSM { return core.SequenceFSM(symbols) }

// NewPortKnock builds the Section 4 port-knocking application.
func NewPortKnock(plan *FrequencyPlan, switchName string, voice *Voice, ch *openflow.Channel, sequence []uint16, openRule openflow.FlowMod) (*PortKnock, error) {
	return core.NewPortKnock(plan, switchName, voice, ch, sequence, openRule)
}

// NewHeavyHitter builds the Section 5 heavy-hitter detector with the
// given number of hash buckets.
func NewHeavyHitter(plan *FrequencyPlan, switchName string, voice *Voice, buckets int) (*HeavyHitter, error) {
	return core.NewHeavyHitter(plan, switchName, voice, buckets)
}

// NewPortScan builds the Section 5 port-scan detector monitoring
// numPorts destination ports starting at firstPort.
func NewPortScan(plan *FrequencyPlan, switchName string, voice *Voice, firstPort uint16, numPorts int) (*PortScan, error) {
	return core.NewPortScan(plan, switchName, voice, firstPort, numPorts)
}

// NewQueueMonitor builds the Section 6 queue monitor on a switch
// output port, allocating its level tones from the plan.
func NewQueueMonitor(plan *FrequencyPlan, sw *netsim.Switch, port int, voice *Voice) (*QueueMonitor, error) {
	return core.NewQueueMonitor(plan, sw, port, voice)
}

// NewQueueMonitorWithTones builds a queue monitor with explicit level
// tones, e.g. the paper's 500/600/700 Hz.
func NewQueueMonitorWithTones(sw *netsim.Switch, port int, voice *Voice, tones [3]float64) *QueueMonitor {
	return core.NewQueueMonitorWithTones(sw, port, voice, tones)
}

// NewLoadBalancer builds the Section 6 load balancer reacting to a
// queue monitor's congested tone.
func NewLoadBalancer(qm *QueueMonitor, ch *openflow.Channel, splitRule openflow.FlowMod) *LoadBalancer {
	return core.NewLoadBalancer(qm, ch, splitRule)
}

// NewFanMonitor builds the Section 7 passive fan-failure monitor
// watching the given harmonic frequencies on a microphone.
func NewFanMonitor(mic *acoustic.Microphone, harmonics []float64) *FanMonitor {
	return core.NewFanMonitor(mic, harmonics)
}

// NewSpreadDetector builds a k-superspreader or DDoS-victim detector
// for one watched host.
func NewSpreadDetector(plan *FrequencyPlan, switchName string, voice *Voice, mode SpreadMode, watched netip.Addr, buckets, k int) (*SpreadDetector, error) {
	return core.NewSpreadDetector(plan, switchName, voice, mode, watched, buckets, k)
}

// NewRelay builds a frequency-translating acoustic relay.
func NewRelay(sim *netsim.Sim, mic *acoustic.Microphone, pi *mp.Pi, mapping map[float64]float64) (*Relay, error) {
	return core.NewRelay(sim, mic, pi, mapping)
}

// NewCongestionController wires a paced source to queue tones.
func NewCongestionController(qm *QueueMonitor, source core.RateSetter) *CongestionController {
	return core.NewCongestionController(qm, source)
}

// NewMelodyCodec allocates a 17-tone byte codec under the given name.
func NewMelodyCodec(plan *FrequencyPlan, name string) (*MelodyCodec, error) {
	return core.NewMelodyCodec(plan, name)
}

// NewMicArray builds a microphone array over the given microphones.
func NewMicArray(sim *netsim.Sim, det *Detector, mics ...*acoustic.Microphone) *MicArray {
	return core.NewMicArray(sim, det, mics...)
}

// NewManager builds an application manager around a microphone.
func NewManager(sim *netsim.Sim, mic *acoustic.Microphone, plan *FrequencyPlan) *Manager {
	return core.NewManager(sim, mic, plan)
}

// NewHeartbeat builds the liveness monitor (1 s period, 3-miss
// threshold).
func NewHeartbeat() *Heartbeat { return core.NewHeartbeat() }

// NewKnockGenerator builds a rotating knock-sequence generator over a
// shared secret.
func NewKnockGenerator(secret []byte) *KnockGenerator {
	return core.NewKnockGenerator(secret)
}

// NewProgrammer builds a retrying flow programmer over a control
// channel, with deterministic backoff jitter from the seed.
func NewProgrammer(ch *openflow.Channel, seed int64) *Programmer {
	return openflow.NewProgrammer(ch, seed)
}

// NewFleet builds a many-microphone analysis fleet cloning template
// for each of workers pool slots (workers <= 0 means GOMAXPROCS,
// workers == 1 is serial). The result is identical at any pool size;
// Controller.EnableFleet wires one into a controller's window loop.
func NewFleet(template *Detector, workers int) *Fleet {
	return core.NewFleet(template, workers)
}

// NewEdgeDedup builds an onset dedup over n frequencies with the given
// attack threshold and the default release hysteresis.
func NewEdgeDedup(n int, threshold float64) *EdgeDedup {
	return core.NewEdgeDedup(n, threshold)
}

// NewCountMin builds a seeded count-min sketch with relative error
// eps at confidence 1-delta (set Conservative for tighter estimates).
func NewCountMin(eps, delta float64, seed uint64) (*CountMin, error) {
	return sketch.NewCountMin(eps, delta, seed)
}

// NewHyperLogLog builds a seeded distinct counter with 2^p registers
// (standard error ~1.04/sqrt(2^p)).
func NewHyperLogLog(p uint8, seed uint64) (*HyperLogLog, error) {
	return sketch.NewHyperLogLog(p, seed)
}

// NewTopK builds a space-saving top-k tracker over k entries.
func NewTopK(k int) (*TopK, error) { return sketch.NewTopK(k) }

// NewSketchFlowCounter builds a count-min-backed FlowCounter; install
// it with HeavyHitter.SetFlowCounter to bound analytics state.
func NewSketchFlowCounter(epsilon, delta float64, seed uint64) (FlowCounter, error) {
	return core.NewSketchFlowCounter(epsilon, delta, seed)
}

// NewSketchDistinctCounter builds an HLL-backed DistinctCounter;
// install it with PortScan.SetDistinctCounter or
// SpreadDetector.SetDistinctCounter.
func NewSketchDistinctCounter(precision uint8, seed uint64) (DistinctCounter, error) {
	return core.NewSketchDistinctCounter(precision, seed)
}

// StartFlowSet launches a batched synthetic-traffic source on a host:
// all flows pace through one scheduler event (see also
// Sim.EnablePacketPool for an allocation-free packet path).
func StartFlowSet(sim *netsim.Sim, h *netsim.Host, cfg FlowSetConfig) *FlowSet {
	return netsim.StartFlowSet(sim, h, cfg)
}

// DefaultModemConfig returns the default acoustic-data-channel
// parameters: 50 ms symbols, 4 lanes, no FEC (set Config.FEC to a
// ModemFECRS or ModemFECHamming for protection).
func DefaultModemConfig() ModemConfig { return modem.DefaultConfig() }

// ModemPlan returns a frequency plan wide enough for the modem's tone
// set under the given config — the 400 Hz – 8 kHz DefaultPlan is too
// narrow for the full 130-tone channel.
func ModemPlan(cfg ModemConfig) *FrequencyPlan { return modem.Plan(cfg) }

// NewModemBand allocates the modem's sync and data tones from a plan
// under the given device name.
func NewModemBand(plan *FrequencyPlan, name string, cfg ModemConfig) (*ModemBand, error) {
	return modem.NewBand(plan, name, cfg)
}

// NewModemTransmitter builds a transmitter sending frames through the
// given switch voice.
func NewModemTransmitter(sim *netsim.Sim, band *ModemBand, voice *Voice) *ModemTransmitter {
	return modem.NewTransmitter(sim, band, voice)
}

// NewModemReceiver builds a receiver for the band; subscribe its
// HandleWindow to a controller (batch or streaming) and read Frames
// or register OnFrame.
func NewModemReceiver(band *ModemBand) *ModemReceiver { return modem.NewReceiver(band) }

// NewModemCorruptor builds a seeded fault injector corrupting each
// payload symbol with the given probability; assign it to
// ModemTransmitter.Corruptor.
func NewModemCorruptor(rate float64, seed int64) *ModemCorruptor {
	return modem.NewCorruptor(rate, seed)
}

// ModemFECByName resolves a FEC scheme from its configuration name:
// "none", "hamming7_4", or "rs_pN" for N parity bytes.
func ModemFECByName(name string) (ModemFEC, error) { return modem.FECByName(name) }

// NewMetricsRegistry creates an empty metrics registry. Pass it to
// Controller.Instrument and the applications' Instrument methods,
// then read Snapshot() for a Prometheus-text view of the pipeline.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.New() }

// Testbed assembles the full simulated MDN deployment: a
// discrete-event network, an acoustic room, a frequency plan, and one
// controller microphone at the origin. It is the quickest way to
// stand up an end-to-end scenario; the examples all start here.
type Testbed struct {
	// Sim is the shared virtual clock and network simulator.
	Sim *netsim.Sim
	// Room is the acoustic environment.
	Room *acoustic.Room
	// Mic is the controller's microphone (at the origin).
	Mic *acoustic.Microphone
	// Plan is the testbed-wide frequency plan.
	Plan *FrequencyPlan
}

// NewTestbed creates a testbed at 44.1 kHz with a 0.0005 RMS
// microphone noise floor, seeded for reproducibility.
func NewTestbed(seed int64) *Testbed {
	sim := netsim.NewSim()
	room := acoustic.NewRoom(44100, seed)
	mic := room.AddMicrophone("controller", acoustic.Position{}, 0.0005)
	return &Testbed{Sim: sim, Room: room, Mic: mic, Plan: DefaultPlan()}
}

// EnableCulling switches the testbed room to audibility-culled
// capture: each microphone mixes only the emissions it can actually
// hear above its own noise floor, which is what makes thousand-voice
// fleets affordable per window (see DESIGN.md §5f). Mixing of audible
// emissions is bit-exact with the unculled room; call with no
// arguments for the noise-floor default, or set Room.CullThreshold
// directly for an explicit floor.
func (tb *Testbed) EnableCulling() { tb.Room.CullThreshold = CullAuto }

// AddVoicedSwitch creates a switch whose Music Protocol sounder
// drives a speaker at (x, y) metres from the controller microphone,
// returning the switch and its voice.
func (tb *Testbed) AddVoicedSwitch(name string, x, y float64) (*netsim.Switch, *Voice) {
	sw := netsim.NewSwitch(tb.Sim, name)
	sp := tb.Room.AddSpeaker(name, acoustic.Position{X: x, Y: y})
	pi := mp.NewPi(tb.Sim, sp, 0.002)
	return sw, core.NewVoice(tb.Sim, mp.NewSounder(pi))
}

// NewController builds a controller on the testbed microphone
// watching the given frequencies with the Goertzel method.
func (tb *Testbed) NewController(watch []float64) *Controller {
	return core.NewController(tb.Sim, tb.Mic, NewDetector(MethodGoertzel, watch))
}

// OpenFlowChannel attaches a control channel with the given one-way
// latency to a switch.
func (tb *Testbed) OpenFlowChannel(sw *netsim.Switch, latency float64) *openflow.Channel {
	return openflow.NewChannel(tb.Sim, sw, latency)
}
