package openflow

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"mdn/internal/netsim"
)

func sampleMessages() []FlowMod {
	return []FlowMod{
		{Command: FlowAdd, Priority: 9, Match: sampleMatch(), Action: netsim.Split(1, 2)},
		{Command: FlowAdd, Priority: 3, Match: netsim.Match{DstPort: 1000, Proto: netsim.ProtoTCP}, Action: netsim.Output(4), IdleTimeout: 2},
		{Command: FlowAdd, Priority: 1, Match: netsim.Match{InPort: 4}, Action: netsim.HashSplit(2, 3), HardTimeout: 30},
		{Command: FlowAdd, Match: netsim.Match{DstPort: 22}, Action: netsim.Drop()},
	}
}

func TestEncoderDecoderStream(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	msgs := sampleMessages()
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf)
	for i, want := range msgs {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		g := got.(FlowMod)
		if g.Priority != want.Priority || g.Match != want.Match || g.Action.Kind != want.Action.Kind ||
			len(g.Action.Ports) != len(want.Action.Ports) ||
			g.IdleTimeout != want.IdleTimeout || g.HardTimeout != want.HardTimeout {
			t.Errorf("message %d: got %+v want %+v", i, g, want)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Errorf("stream end: err = %v, want io.EOF", err)
	}
	if dec.Resyncs != 0 || dec.SkippedBytes != 0 {
		t.Errorf("clean stream resynced: %d/%d", dec.Resyncs, dec.SkippedBytes)
	}
}

func TestDecoderResyncsPastGarbage(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xDE, 0xAD, 0xBE, 0xEF}) // leading garbage
	buf.Write(must(MarshalFlowMod(FlowMod{Command: FlowAdd, Priority: 1, Action: netsim.Output(1)})))
	buf.Write([]byte{0x0F}) // half a magic, then more garbage
	buf.Write([]byte{0x00, 0x42, 0x42})
	buf.Write(must(MarshalFlowMod(FlowMod{Command: FlowAdd, Priority: 2, Action: netsim.Drop()})))

	dec := NewDecoder(&buf)
	got1, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got1.(FlowMod).Priority != 1 {
		t.Errorf("first message: %+v", got1)
	}
	got2, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got2.(FlowMod).Priority != 2 {
		t.Errorf("second message: %+v", got2)
	}
	if dec.Resyncs == 0 || dec.SkippedBytes == 0 {
		t.Error("garbage skipping not recorded")
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Errorf("stream end: err = %v, want io.EOF", err)
	}
}

func TestDecoderSurvivesFlippedByte(t *testing.T) {
	// Corrupt each byte of the first frame in turn: the second frame
	// must always still decode — a flipped byte costs one message, not
	// the connection.
	first := must(MarshalFlowMod(FlowMod{Command: FlowAdd, Action: netsim.Output(7), Priority: 3}))
	second := must(MarshalFlowMod(FlowMod{Command: FlowAdd, Action: netsim.Output(9), Priority: 99}))
	for off := 0; off < len(first); off++ {
		stream := append([]byte(nil), first...)
		stream[off] ^= 0x40
		stream = append(stream, second...)
		dec := NewDecoder(bytes.NewReader(stream))
		var sawSurvivor bool
		for {
			msg, err := dec.Decode()
			if err != nil {
				break
			}
			if msg.(FlowMod).Priority == 99 {
				sawSurvivor = true
			}
		}
		if !sawSurvivor {
			t.Errorf("flip at %d: second frame lost", off)
		}
	}
}

func TestDecoderTruncatedTail(t *testing.T) {
	wire := must(MarshalFlowMod(FlowMod{Command: FlowAdd, Action: netsim.Output(1)}))
	dec := NewDecoder(bytes.NewReader(wire[:len(wire)-3]))
	if _, err := dec.Decode(); err != io.ErrUnexpectedEOF {
		t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestEncoderRejectsUnencodable(t *testing.T) {
	enc := NewEncoder(io.Discard)
	if err := enc.Encode(FlowMod{Command: 9}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("bad command: err = %v", err)
	}
	if err := enc.Encode(FlowMod{Command: FlowAdd, Action: netsim.Action{Kind: 3}}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("unassigned action kind: err = %v", err)
	}
	if err := enc.Encode(FlowMod{Command: FlowAdd, Action: netsim.Split(make([]int, MaxActionPorts+1)...)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("too many ports: err = %v", err)
	}
}

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
