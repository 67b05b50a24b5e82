package mdn

import (
	"net/netip"

	"mdn/internal/acoustic"
	"mdn/internal/core"
	"mdn/internal/modem"
	"mdn/internal/mp"
	"mdn/internal/netsim"
	"mdn/internal/openflow"
)

// Re-exported types: the ones the facade's constructors and the
// Testbed hand out. Everything else lives in the internal packages.
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
	// SpreadDetector is the Section 5 open problem: k-superspreader
	// and DDoS-victim detection.
	SpreadDetector = core.SpreadDetector
	// SpreadMode selects superspreader or DDoS-victim semantics.
	SpreadMode = core.SpreadMode
	// Relay is the Section 8 multi-hop sound relay.
	Relay = core.Relay
	// FanMonitor is the Section 7 passive failure detector.
	FanMonitor = core.FanMonitor
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
)

// MethodGoertzel checks each watched frequency with a Goertzel filter.
const MethodGoertzel = core.MethodGoertzel

// ModeDDoSVictim flags a destination contacted by many sources.
const ModeDDoSVictim = core.ModeDDoSVictim

// DefaultStride is the recommended slot stride for same-window tones.
const DefaultStride = core.DefaultStride

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

// NewSpreadDetector builds a k-superspreader or DDoS-victim detector
// for one watched host.
func NewSpreadDetector(plan *FrequencyPlan, switchName string, voice *Voice, mode SpreadMode, watched netip.Addr, buckets, k int) (*SpreadDetector, error) {
	return core.NewSpreadDetector(plan, switchName, voice, mode, watched, buckets, k)
}

// NewRelay builds a frequency-translating acoustic relay.
func NewRelay(sim *netsim.Sim, mic *acoustic.Microphone, pi *mp.Pi, mapping map[float64]float64) (*Relay, error) {
	return core.NewRelay(sim, mic, pi, mapping)
}

// NewFanMonitor builds the Section 7 passive fan-failure monitor
// watching the given harmonic frequencies on a microphone.
func NewFanMonitor(mic *acoustic.Microphone, harmonics []float64) *FanMonitor {
	return core.NewFanMonitor(mic, harmonics)
}

// DefaultModemConfig returns the default acoustic-data-channel
// parameters: 50 ms symbols, 4 lanes, no FEC (set Config.FEC, e.g.
// from ModemFECByName, for protection).
func DefaultModemConfig() ModemConfig { return modem.DefaultConfig() }

// ModemPlan returns a frequency plan wide enough for the modem's tone
// set under the given config — the testbed's 400 Hz – 8 kHz plan is
// too narrow for the full 130-tone channel.
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
	return &Testbed{Sim: sim, Room: room, Mic: mic, Plan: core.DefaultPlan()}
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
