package core

import (
	"fmt"
	"slices"

	"mdn/internal/netsim"
	"mdn/internal/openflow"
)

// PortKnock is the Section 4 state-processing application: the switch
// plays a tone per knock packet (one frequency per knock port), the
// controller runs a finite state machine over the tone sequence, and
// when the knocks arrive in the correct order it installs a flow rule
// opening a previously closed port.
//
// Unlike OpenState, the knock state lives in the MDN controller, not
// in the switch — exactly as the paper implements it.
type PortKnock struct {
	// Sequence is the secret knock: destination ports in order.
	Sequence []uint16
	// OpenRule is the Flow-MOD sent when the sequence completes.
	OpenRule openflow.FlowMod

	voice *Voice
	prog  *openflow.Programmer
	fsm   *FSM
	onset *OnsetFilter
	errs  *ErrorLog

	freqForPort map[uint16]float64
	// tones lists the knock frequencies in first-knock order and syms
	// their FSM symbols, built once so the per-window dispatch does not
	// format strings. A knock has a few tones, so a scan beats a map,
	// and one range compare against the lowest and highest of them
	// skips the scan for most of a busy window's detections.
	tones           []float64
	syms            []string
	lowest, highest float64
	// own is the window's knock detections, the onset filter's only
	// input: its state then tracks the knock tones, not every
	// frequency the controller heard.
	own []Detection

	// Opened reports whether the knock sequence was accepted and the
	// open rule sent.
	Opened bool
	// OpenedAt is when the rule was sent (valid when Opened).
	OpenedAt float64
	// Installed reports the open rule confirmed through the channel
	// (possibly after retries); InstalledAt is when it lands on the
	// switch, the channel's Latency after the confirmed send (fault
	// jitter not included).
	Installed   bool
	InstalledAt float64
	// WrongKnocks counts sequence resets.
	WrongKnocks uint64
	// ProgramFailures counts terminal flow-programming failures.
	ProgramFailures uint64
	// LastErr is the most recent programming failure (nil when none).
	LastErr error
}

// NewPortKnock allocates one frequency per knock port from the plan
// (under the switch's name) and builds the application. Wire its Tap
// into the switch and its HandleWindow into the controller.
func NewPortKnock(plan *FrequencyPlan, switchName string, voice *Voice, ch *openflow.Channel, sequence []uint16, openRule openflow.FlowMod) (*PortKnock, error) {
	if len(sequence) == 0 {
		return nil, fmt.Errorf("core: port knock needs a non-empty sequence")
	}
	// Distinct ports in the sequence each get one frequency.
	distinct := make([]uint16, 0, len(sequence))
	seen := make(map[uint16]bool)
	for _, p := range sequence {
		if !seen[p] {
			seen[p] = true
			distinct = append(distinct, p)
		}
	}
	// Knock tones can land in the same detection window, so they get
	// guard-banded slots.
	freqs, err := plan.AllocateSpaced(switchName+"/portknock", len(distinct), DefaultStride)
	if err != nil {
		return nil, err
	}
	pk := &PortKnock{
		Sequence:    append([]uint16(nil), sequence...),
		OpenRule:    openRule,
		voice:       voice,
		prog:        openflow.NewProgrammer(ch, 2),
		onset:       NewOnsetFilter(),
		freqForPort: make(map[uint16]float64, len(distinct)),
		tones:       freqs,
		syms:        make([]string, len(distinct)),
		lowest:      slices.Min(freqs),
		highest:     slices.Max(freqs),
	}
	pk.prog.OnResult = func(m openflow.FlowMod, err error) {
		if err != nil {
			pk.recordFailure(err)
			return
		}
		pk.Installed = true
		pk.InstalledAt = ch.Sim().Now() + ch.Latency
	}
	for i, p := range distinct {
		pk.freqForPort[p] = freqs[i]
		pk.syms[i] = knockSymbol(p)
	}
	symbols := make([]string, len(sequence))
	for i, p := range sequence {
		symbols[i] = knockSymbol(p)
	}
	pk.fsm = SequenceFSM(symbols)
	pk.fsm.OnAccept = pk.open
	pk.fsm.OnReset = func(string, string) { pk.WrongKnocks++ }
	return pk, nil
}

// Frequencies returns the knock-port frequencies the controller must
// watch.
func (pk *PortKnock) Frequencies() []float64 {
	return append([]float64(nil), pk.tones...)
}

// Tap is the switch-side hook: a packet whose destination port is in
// the knock set makes the switch play that port's tone.
func (pk *PortKnock) Tap(pkt *netsim.Packet, _ int) {
	if f, ok := pk.freqForPort[pkt.Flow.DstPort]; ok {
		pk.voice.Play(f)
	}
}

// HandleWindow is the controller-side hook: feed it every detection
// window (wire via Controller.SubscribeWindows).
func (pk *PortKnock) HandleWindow(_ float64, dets []Detection) {
	// Each frequency's onset state is independent of the others', so
	// stepping the filter over the knock tones alone confirms the same
	// knock onsets, in the same order.
	pk.own = pk.own[:0]
	for _, det := range dets {
		if f := det.Frequency; f >= pk.lowest && f <= pk.highest && pk.tone(f) >= 0 {
			pk.own = append(pk.own, det)
		}
	}
	for _, det := range pk.onset.Step(pk.own) {
		pk.fsm.Step(pk.syms[pk.tone(det.Frequency)])
	}
}

// tone returns the index of freq among the knock tones, or -1.
func (pk *PortKnock) tone(freq float64) int {
	for i, f := range pk.tones {
		if f == freq {
			return i
		}
	}
	return -1
}

// knockSymbol is the FSM symbol of a knock on port p.
func knockSymbol(p uint16) string { return fmt.Sprintf("port%d", p) }

// Programmer exposes the retrying flow programmer (to read its
// counters).
func (pk *PortKnock) Programmer() *openflow.Programmer { return pk.prog }

// SetErrorLog routes programming failures into a shared log —
// typically the controller's, so they feed its health state.
func (pk *PortKnock) SetErrorLog(l *ErrorLog) { pk.errs = l }

// Accepts returns how many times the full knock sequence has been
// accepted (the FSM re-arms after each accept; Opened latches only
// the first).
func (pk *PortKnock) Accepts() uint64 { return pk.fsm.Accepts }

func (pk *PortKnock) recordFailure(err error) {
	pk.ProgramFailures++
	pk.LastErr = err
	pk.errs.Record(pk.channelNow(), "portknock",
		fmt.Errorf("%w: open rule: %v", ErrFlowProgram, err))
}

func (pk *PortKnock) open() {
	if pk.Opened {
		return
	}
	pk.Opened = true
	pk.OpenedAt = pk.channelNow()
	// Wire-format failures and exhausted retries are recorded, never
	// panicked: the knock FSM and every other application keep
	// running.
	if err := pk.prog.Install(pk.OpenRule); err != nil {
		pk.recordFailure(err)
	}
}

func (pk *PortKnock) channelNow() float64 {
	// The channel's switch shares the simulator; read time through
	// the voice, which holds it.
	return pk.voice.sim.Now()
}

// State exposes the FSM state (for tests and the experiment harness).
func (pk *PortKnock) State() string { return pk.fsm.State() }
