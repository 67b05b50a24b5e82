package mp

import (
	"mdn/internal/acoustic"
	"mdn/internal/audio"
	"mdn/internal/netsim"
)

// Pi is the simulated Raspberry Pi of the paper's testbed: it sits on
// a dedicated switch port, receives Music Protocol messages, and
// drives the attached speaker. LinkDelay models the switch→Pi Ethernet
// hop plus the Pi's audio-stack latency.
type Pi struct {
	// Speaker is the attached driver in the acoustic room.
	Speaker *acoustic.Speaker
	// LinkDelay is seconds between the switch sending an MP message
	// and the speaker starting the tone.
	LinkDelay float64

	sim *netsim.Sim

	// Played counts accepted messages.
	Played uint64
	// Rejected counts messages that failed validation.
	Rejected uint64
}

// NewPi attaches a Pi to a speaker on the simulator clock.
func NewPi(sim *netsim.Sim, speaker *acoustic.Speaker, linkDelay float64) *Pi {
	return &Pi{Speaker: speaker, LinkDelay: linkDelay, sim: sim}
}

// HandleAfter plays one decoded message: the tone starts LinkDelay
// plus extra seconds after the current simulation time (extra is the
// hook fault injection uses for latency jitter). Invalid messages are
// dropped and counted, like a defensive firmware would.
func (p *Pi) HandleAfter(m Message, extra float64) {
	if err := m.Validate(); err != nil {
		p.Rejected++
		return
	}
	p.Played++
	p.Speaker.Play(p.sim.Now()+p.LinkDelay+extra, audio.Tone{
		Frequency: m.Frequency,
		Duration:  m.Duration,
		Amplitude: acoustic.SPLToAmplitude(m.Intensity),
	})
}

// Sounder is the switch-side MP sender: the firmware extension the
// paper added to the Zodiac FX. Emit marshals the message to the wire
// format, "transmits" it, and the Pi decodes and plays it — so every
// tone in every experiment exercises the byte-accurate protocol path.
// InjectFaults arms deterministic wire faults on the hop.
type Sounder struct {
	pi     *Pi
	faults *netsim.FaultInjector

	// Sent counts messages pushed into the hop (before any injected
	// fault), so loss rates are computable from the counters alone.
	Sent uint64
	// SentBytes counts wire bytes pushed to the Pi.
	SentBytes uint64
	// Dropped counts messages lost whole to injected faults.
	Dropped uint64
	// Corrupted counts messages the Pi-side decoder rejected after
	// injected corruption (or an unencodable field such as NaN, which
	// the strict decoder likewise refuses).
	Corrupted uint64
}

// NewSounder wires a switch-side sender to its Pi.
func NewSounder(pi *Pi) *Sounder { return &Sounder{pi: pi} }

// Speaker returns the speaker of the sounder's Pi.
func (s *Sounder) Speaker() *acoustic.Speaker { return s.pi.Speaker }

// InjectFaults arms wire-fault injection on the switch→Pi hop and
// returns the injector so callers can read its counters.
func (s *Sounder) InjectFaults(f netsim.Faults) *netsim.FaultInjector {
	s.faults = netsim.NewFaultInjector(f)
	return s.faults
}

// Emit sends one MP message to the Pi. Malformed messages are dropped
// at the Pi (see Pi.Rejected); wire bytes the decoder rejects — from
// injected corruption or unencodable fields — are counted in
// Corrupted and dropped, never a panic.
func (s *Sounder) Emit(m Message) {
	wire := Marshal(m)
	s.Sent++
	s.SentBytes += uint64(len(wire))
	wire, delivered := s.faults.Mangle(wire)
	if !delivered {
		s.Dropped++
		return
	}
	decoded, err := Unmarshal(wire)
	if err != nil {
		s.Corrupted++
		return
	}
	s.pi.HandleAfter(decoded, s.faults.Jitter())
}
