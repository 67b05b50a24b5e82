package openflow

import (
	"testing"

	"mdn/internal/netsim"
)

func TestChannelFaultInjection(t *testing.T) {
	sim := netsim.NewSim()
	sw := netsim.NewSwitch(sim, "s1")
	ch := NewChannel(sim, sw, 0.001)
	inj := ch.InjectFaults(netsim.Faults{DropProb: 0.3, FlipProb: 0.3, TruncProb: 0.1, JitterMax: 0.01, Seed: 42})
	const sends = 500
	for i := 0; i < sends; i++ {
		if err := ch.SendFlowMod(FlowMod{
			Command: FlowAdd, Priority: int32(i),
			Match:  netsim.Match{DstPort: uint16(i + 1)},
			Action: netsim.Output(1),
		}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	sim.Run()
	if ch.SentFlowMods != sends {
		t.Errorf("SentFlowMods = %d", ch.SentFlowMods)
	}
	if ch.DroppedFlowMods == 0 || ch.CorruptedFlowMods == 0 {
		t.Errorf("faults not exercised: dropped=%d corrupted=%d", ch.DroppedFlowMods, ch.CorruptedFlowMods)
	}
	installed := uint64(len(sw.Rules()))
	if installed == 0 {
		t.Error("no rule survived the channel")
	}
	// A flipped bit can still land inside a value field (the format
	// carries no checksum), but lost and rejected messages bound what
	// can reach the switch.
	if installed+ch.DroppedFlowMods+ch.CorruptedFlowMods > sends {
		t.Errorf("accounting: %d installed + %d dropped + %d corrupted > %d",
			installed, ch.DroppedFlowMods, ch.CorruptedFlowMods, sends)
	}
	if inj.Dropped != ch.DroppedFlowMods {
		t.Errorf("injector dropped %d, channel %d", inj.Dropped, ch.DroppedFlowMods)
	}
	// The strict codec's guarantee: no surviving rule carries an
	// action outside the defined domain.
	for _, r := range sw.Rules() {
		if !r.Action.Kind.Valid() || len(r.Action.Ports) > MaxActionPorts {
			t.Errorf("corrupt rule installed: %+v", r.Action)
		}
	}
}

func TestChannelFaultsDeterministic(t *testing.T) {
	run := func() (uint64, uint64) {
		sim := netsim.NewSim()
		sw := netsim.NewSwitch(sim, "s1")
		ch := NewChannel(sim, sw, 0)
		ch.InjectFaults(netsim.Faults{DropProb: 0.5, FlipProb: 0.5, Seed: 7})
		for i := 0; i < 200; i++ {
			_ = ch.SendFlowMod(FlowMod{Command: FlowAdd, Action: netsim.Drop()})
		}
		return ch.DroppedFlowMods, ch.CorruptedFlowMods
	}
	d1, c1 := run()
	d2, c2 := run()
	if d1 != d2 || c1 != c2 {
		t.Errorf("same seed diverged: %d/%d vs %d/%d", d1, c1, d2, c2)
	}
}

func TestChannelJitterDelaysDelivery(t *testing.T) {
	sim := netsim.NewSim()
	sw := netsim.NewSwitch(sim, "s1")
	ch := NewChannel(sim, sw, 0.01)
	ch.InjectFaults(netsim.Faults{JitterMax: 0.05, Seed: 1})
	if err := ch.SendFlowMod(FlowMod{Command: FlowAdd, Action: netsim.Drop()}); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(0.01)
	if len(sw.Rules()) != 0 {
		t.Skip("jitter draw was ~0; rule landed at base latency")
	}
	sim.RunUntil(0.07)
	if len(sw.Rules()) != 1 {
		t.Error("rule never delivered despite jitter bound")
	}
}
