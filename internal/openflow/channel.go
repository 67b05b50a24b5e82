package openflow

import (
	"fmt"

	"mdn/internal/netsim"
)

// Channel is a control connection between a controller and one
// simulated switch, with a configurable one-way control-plane latency.
// Flow-MODs sent through the channel are marshalled to the wire
// format, unmarshalled at the switch side, and applied after the
// latency elapses — so experiments account for rule-installation
// delay just as the paper's OpenFlow channel does.
//
// InjectFaults arms deterministic wire faults (bit flips, truncation,
// drops, latency jitter) so experiments can measure control-plane
// degradation: a mangled Flow-MOD is rejected by the strict codec at
// the switch side and counted, never applied.
type Channel struct {
	// Latency is the one-way control latency in seconds.
	Latency float64

	sim    *netsim.Sim
	sw     *netsim.Switch
	faults *netsim.FaultInjector

	// SentFlowMods counts Flow-MODs pushed through the channel.
	SentFlowMods uint64
	// DroppedFlowMods counts Flow-MODs lost whole to injected faults.
	DroppedFlowMods uint64
	// CorruptedFlowMods counts Flow-MODs the switch-side codec
	// rejected after injected corruption.
	CorruptedFlowMods uint64
}

// NewChannel attaches a control channel to a switch.
func NewChannel(sim *netsim.Sim, sw *netsim.Switch, latency float64) *Channel {
	return &Channel{Latency: latency, sim: sim, sw: sw}
}

// Switch returns the attached switch.
func (c *Channel) Switch() *netsim.Switch { return c.sw }

// Sim returns the channel's clock — what retrying wrappers schedule
// their backoff on.
func (c *Channel) Sim() *netsim.Sim { return c.sim }

// InjectFaults arms wire-fault injection on the channel and returns
// the injector so callers can read its counters. A zero Faults value
// effectively disables injection again.
func (c *Channel) InjectFaults(f netsim.Faults) *netsim.FaultInjector {
	c.faults = netsim.NewFaultInjector(f)
	return c.faults
}

// SendFlowMod transmits the Flow-MOD; it takes effect at the switch
// after the channel latency (plus any injected jitter). The message
// round-trips through the wire format so marshalling bugs surface in
// every experiment. Unencodable messages return an error; messages
// lost to injected faults are counted, not errors — that loss is the
// phenomenon fault experiments measure.
func (c *Channel) SendFlowMod(m FlowMod) error {
	_, err := c.TrySendFlowMod(m)
	return err
}

// TrySendFlowMod is SendFlowMod with delivery feedback: delivered
// reports whether the message survived the wire and will be applied
// at the switch — the acknowledgement a barrier round-trip would
// carry on a real control channel. delivered=false with a nil error
// means the message was lost or corrupted in transit (counted, not an
// error); retrying wrappers key off it.
func (c *Channel) TrySendFlowMod(m FlowMod) (delivered bool, err error) {
	wire, err := MarshalFlowMod(m)
	if err != nil {
		return false, fmt.Errorf("openflow: flow-mod: %w", err)
	}
	return c.sendWire(wire)
}

// sendWire is TrySendFlowMod for a Flow-MOD already marshalled by
// MarshalFlowMod. It never writes to wire, so a caller may send the
// same bytes again.
func (c *Channel) sendWire(wire []byte) (delivered bool, err error) {
	c.SentFlowMods++
	wire, ok := c.faults.Mangle(wire)
	if !ok {
		c.DroppedFlowMods++
		return false, nil
	}
	decoded, _, err := Unmarshal(wire)
	if err != nil {
		if c.faults != nil {
			c.CorruptedFlowMods++
			return false, nil
		}
		return false, fmt.Errorf("openflow: flow-mod failed wire round-trip: %w", err)
	}
	fm := decoded.(FlowMod) // the only message Unmarshal decodes
	delay := c.Latency + c.faults.Jitter()
	c.sim.After(delay, func() { fm.Apply(c.sw) })
	return true, nil
}
