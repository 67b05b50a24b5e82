package openflow

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"mdn/internal/netsim"
)

// must unwraps a marshal result; tests fail via the panic.
func must(wire []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return wire
}

func sampleMatch() netsim.Match {
	return netsim.Match{
		InPort:  3,
		Src:     netsim.MustAddr("10.0.0.1"),
		Dst:     netsim.MustAddr("10.0.0.2"),
		SrcPort: 1000,
		DstPort: 80,
		Proto:   netsim.ProtoTCP,
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	in := FlowMod{
		Command:  FlowAdd,
		Priority: 42,
		Match:    sampleMatch(),
		Action:   netsim.Split(2, 3, 7),
	}
	wire, err := MarshalFlowMod(in)
	if err != nil {
		t.Fatal(err)
	}
	out, n, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) {
		t.Errorf("consumed %d of %d", n, len(wire))
	}
	got, ok := out.(FlowMod)
	if !ok {
		t.Fatalf("decoded %T", out)
	}
	if got.Command != in.Command || got.Priority != in.Priority || got.Match != in.Match {
		t.Errorf("got %+v, want %+v", got, in)
	}
	if got.Action.Kind != in.Action.Kind || len(got.Action.Ports) != 3 || got.Action.Ports[2] != 7 {
		t.Errorf("action = %+v", got.Action)
	}
}

func TestFlowModWildcardsRoundTrip(t *testing.T) {
	in := FlowMod{Command: FlowAdd, Priority: 1, Action: netsim.Drop()}
	out, _, err := Unmarshal(must(MarshalFlowMod(in)))
	if err != nil {
		t.Fatal(err)
	}
	got := out.(FlowMod)
	if got.Match != (netsim.Match{}) {
		t.Errorf("wildcard match corrupted: %+v", got.Match)
	}
	if got.Match.Src.IsValid() {
		t.Error("zero address should stay invalid (wildcard)")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2},
		{0, 0, 1, 0, 0},             // bad magic
		{0x0F, 0x4D, 99, 0, 0},      // unknown type
		{0x0F, 0x4D, 1, 0xFF, 0xFF}, // truncated payload
		{0x0F, 0x4D, 1, 0, 1, 0},    // short flow-mod
	}
	for i, b := range cases {
		if _, _, err := Unmarshal(b); !errors.Is(err, ErrBadMessage) {
			t.Errorf("case %d: err = %v, want ErrBadMessage", i, err)
		}
	}
}

func TestFlowModPriorityRoundTripProperty(t *testing.T) {
	f := func(prio int32, dstPort uint16, proto uint8) bool {
		in := FlowMod{
			Command:  FlowAdd,
			Priority: prio,
			Match:    netsim.Match{DstPort: dstPort, Proto: proto},
			Action:   netsim.Output(int(dstPort) % 8),
		}
		wire, err := MarshalFlowMod(in)
		if err != nil {
			return false
		}
		out, _, err := Unmarshal(wire)
		if err != nil {
			return false
		}
		got := out.(FlowMod)
		return got.Priority == prio && got.Match.DstPort == dstPort && got.Match.Proto == proto
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFlowModApply(t *testing.T) {
	sim := netsim.NewSim()
	sw := netsim.NewSwitch(sim, "s1")
	add := FlowMod{Command: FlowAdd, Priority: 7, Match: netsim.Match{DstPort: 80}, Action: netsim.Output(2)}
	rule := add.Apply(sw)
	if rule == nil || len(sw.Rules()) != 1 || sw.Rules()[0] != rule {
		t.Fatal("rule not installed")
	}
	if rule.Priority != 7 || rule.Match != add.Match || rule.Action.Kind != netsim.ActionOutput || rule.Action.Ports[0] != 2 {
		t.Errorf("installed rule %+v does not carry the Flow-MOD's fields", rule)
	}
	// A second add of the same match installs a second rule: the
	// control plane only ever adds.
	add.Apply(sw)
	if len(sw.Rules()) != 2 {
		t.Errorf("rules = %d after two adds, want 2", len(sw.Rules()))
	}
}

func TestChannelLatencyAndDelivery(t *testing.T) {
	sim := netsim.NewSim()
	sw := netsim.NewSwitch(sim, "s1")
	ch := NewChannel(sim, sw, 0.05)
	err := ch.SendFlowMod(FlowMod{Command: FlowAdd, Priority: 1, Action: netsim.Drop()})
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(0.04)
	if len(sw.Rules()) != 0 {
		t.Error("rule applied before control latency")
	}
	sim.RunUntil(0.06)
	if len(sw.Rules()) != 1 {
		t.Error("rule not applied after control latency")
	}
	if ch.SentFlowMods != 1 || ch.Switch() != sw {
		t.Error("channel bookkeeping wrong")
	}
}

func TestMessageTypeString(t *testing.T) {
	names := map[MessageType]string{TypeFlowMod: "flow-mod", MessageType(9): "unknown"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestFlowModTimeoutsRoundTrip(t *testing.T) {
	in := FlowMod{
		Command: FlowAdd, Priority: 3,
		Match:       netsim.Match{DstPort: 22},
		Action:      netsim.Output(1),
		IdleTimeout: 2.5,
		HardTimeout: 30,
	}
	out, _, err := Unmarshal(must(MarshalFlowMod(in)))
	if err != nil {
		t.Fatal(err)
	}
	got := out.(FlowMod)
	if got.IdleTimeout != 2.5 || got.HardTimeout != 30 {
		t.Errorf("timeouts = %g/%g", got.IdleTimeout, got.HardTimeout)
	}
	// Apply carries them to the rule: idle-out after 2.5 s of silence.
	sim := netsim.NewSim()
	sw := netsim.NewSwitch(sim, "s1")
	rule := got.Apply(sw)
	if rule.IdleTimeout != 2.5 || rule.HardTimeout != 30 {
		t.Error("timeouts lost in Apply")
	}
	sim.RunUntil(3)
	if len(sw.Rules()) != 0 {
		t.Error("rule should have idled out")
	}
}

func TestFlowModRejectsNegativeTimeouts(t *testing.T) {
	if _, err := MarshalFlowMod(FlowMod{Command: FlowAdd, IdleTimeout: -1}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("negative timeout marshalled: %v", err)
	}
	// And a forged wire frame carrying one must not decode either.
	good := must(MarshalFlowMod(FlowMod{Command: FlowAdd, IdleTimeout: 1}))
	off := headerLen + 5 + matchLen
	binary.BigEndian.PutUint64(good[off:], math.Float64bits(-1))
	if _, _, err := Unmarshal(good); !errors.Is(err, ErrBadMessage) {
		t.Errorf("negative timeout accepted on decode: %v", err)
	}
}

// --- wire-format limit regressions: fields at and past each boundary ---

func TestMarshalPortCountBoundary(t *testing.T) {
	ports := make([]int, MaxActionPorts)
	for i := range ports {
		ports[i] = i + 1
	}
	in := FlowMod{Command: FlowAdd, Action: netsim.Split(ports...)}
	out, _, err := Unmarshal(must(MarshalFlowMod(in)))
	if err != nil {
		t.Fatal(err)
	}
	got := out.(FlowMod).Action.Ports
	if len(got) != MaxActionPorts || got[MaxActionPorts-1] != MaxActionPorts {
		t.Errorf("255 ports corrupted: %d back", len(got))
	}
	in.Action = netsim.Split(append(ports, 256)...)
	if _, err := MarshalFlowMod(in); !errors.Is(err, ErrTooLarge) {
		t.Errorf("256 ports: err = %v, want ErrTooLarge", err)
	}
}

func TestMarshalRejectsBadFields(t *testing.T) {
	cases := []struct {
		name string
		m    FlowMod
	}{
		{"unknown command", FlowMod{Command: 9, Action: netsim.Drop()}},
		{"delete command", FlowMod{Command: 1, Action: netsim.Drop()}},
		{"unknown action kind", FlowMod{Command: FlowAdd, Action: netsim.Action{Kind: 99}}},
		{"unassigned action kind 3", FlowMod{Command: FlowAdd, Action: netsim.Action{Kind: 3}}},
		{"unassigned action kind 4", FlowMod{Command: FlowAdd, Action: netsim.Action{Kind: 4}}},
		{"negative action kind", FlowMod{Command: FlowAdd, Action: netsim.Action{Kind: -1}}},
		{"negative port", FlowMod{Command: FlowAdd, Action: netsim.Output(-1)}},
		{"NaN timeout", FlowMod{Command: FlowAdd, Action: netsim.Drop(), IdleTimeout: math.NaN()}},
		{"Inf timeout", FlowMod{Command: FlowAdd, Action: netsim.Drop(), HardTimeout: math.Inf(1)}},
		{"negative in-port", FlowMod{Command: FlowAdd, Action: netsim.Drop(), Match: netsim.Match{InPort: -1}}},
		{"IPv6 src", FlowMod{Command: FlowAdd, Action: netsim.Drop(),
			Match: netsim.Match{Src: netip.MustParseAddr("2001:db8::1")}}},
		{"IPv6 dst", FlowMod{Command: FlowAdd, Action: netsim.Drop(),
			Match: netsim.Match{Dst: netip.MustParseAddr("::1")}}},
	}
	for _, c := range cases {
		if _, err := MarshalFlowMod(c.m); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s: err = %v, want ErrBadMessage", c.name, err)
		}
	}
}

func TestUnmarshalRejectsCorruptFields(t *testing.T) {
	flip := func(wire []byte, off int, v byte) []byte {
		cp := append([]byte(nil), wire...)
		cp[off] = v
		return cp
	}
	fm := must(MarshalFlowMod(FlowMod{Command: FlowAdd, Action: netsim.Output(2)}))
	kindOff := headerLen + 5 + matchLen + 16
	cases := map[string][]byte{
		"corrupt action kind": flip(fm, kindOff, 99),
		"corrupt command":     flip(fm, headerLen, 7),
		"corrupt port count":  flip(fm, kindOff+1, 9), // length no longer matches
		"trailing junk":       append(append([]byte(nil), fm...), 0xAA),
		// Wire values the codec once accepted: a delete command, the
		// flood and controller action kinds, and well-formed Packet-In
		// (type 2, empty name) and Port-Status (type 3) frames.
		"delete command": flip(fm, headerLen, 1),
		"action kind 3":  flip(fm, kindOff, 3),
		"action kind 4":  flip(fm, kindOff, 4),
		"type 2 frame":   append([]byte{0x0F, 0x4D, 2, 0, 26}, make([]byte, 26)...),
		"type 3 frame":   {0x0F, 0x4D, 3, 0, 7, 1, 's', 0, 0, 0, 1, 1},
	}
	for name, wire := range cases {
		if name == "trailing junk" {
			// The frame's own length field hides the junk from the
			// payload, so patch the header length up instead.
			binary.BigEndian.PutUint16(wire[3:5], uint16(len(wire)-headerLen))
		}
		if _, _, err := Unmarshal(wire); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s: err = %v, want ErrBadMessage", name, err)
		}
	}
}

// TestFlowModWireBytes pins the wire encoding of a Flow-MOD for each
// action kind, so the surviving kinds keep the byte values (drop 0,
// output 1, split 2, hash-split 5) every earlier peer sends.
func TestFlowModWireBytes(t *testing.T) {
	const head = "0f4d01"            // magic, type flow-mod
	const body = "00" + "00000007" + // command add, priority 7
		"00000000" + "00000000" + "0a000002" + "0000" + "0050" + "06" + // match: any in-port and src, dst 10.0.0.2, dst port 80, TCP
		"0000000000000000" + "4024000000000000" // idle 0, hard 10
	for _, c := range []struct {
		action netsim.Action
		want   string
	}{
		{netsim.Drop(), head + "0028" + body + "00" + "00"},
		{netsim.Output(2), head + "002c" + body + "01" + "01" + "00000002"},
		{netsim.Split(2, 3), head + "0030" + body + "02" + "02" + "00000002" + "00000003"},
		{netsim.HashSplit(2, 3), head + "0030" + body + "05" + "02" + "00000002" + "00000003"},
	} {
		m := FlowMod{Command: FlowAdd, Priority: 7, Action: c.action, HardTimeout: 10,
			Match: netsim.Match{Dst: netsim.MustAddr("10.0.0.2"), DstPort: 80, Proto: netsim.ProtoTCP}}
		if got := hex.EncodeToString(must(MarshalFlowMod(m))); got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.action.Kind, got, c.want)
		}
	}
}

// TestMarshalFlowModAllocs: header and payload share one allocation.
func TestMarshalFlowModAllocs(t *testing.T) {
	m := FlowMod{Command: FlowAdd, Priority: 7, Action: netsim.Split(2, 3), HardTimeout: 10,
		Match: netsim.Match{Dst: netsim.MustAddr("10.0.0.2"), DstPort: 80, Proto: netsim.ProtoTCP}}
	allocs := testing.AllocsPerRun(100, func() { must(MarshalFlowMod(m)) })
	if allocs != 1 {
		t.Errorf("MarshalFlowMod allocates %v times, want 1", allocs)
	}
}

// --- randomized marshal→unmarshal equality ---

func randAddr(rng *rand.Rand) netip.Addr {
	if rng.Intn(4) == 0 {
		return netip.Addr{} // wildcard
	}
	return netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), 1 + byte(rng.Intn(255))})
}

func randMatch(rng *rand.Rand) netsim.Match {
	return netsim.Match{
		InPort:  rng.Intn(64),
		Src:     randAddr(rng),
		Dst:     randAddr(rng),
		SrcPort: uint16(rng.Intn(1 << 16)),
		DstPort: uint16(rng.Intn(1 << 16)),
		Proto:   uint8(rng.Intn(256)),
	}
}

func TestRandomizedRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kinds := []netsim.ActionKind{netsim.ActionDrop, netsim.ActionOutput, netsim.ActionSplit, netsim.ActionHashSplit}
	for i := 0; i < 500; i++ {
		fm := FlowMod{
			Command:     FlowAdd,
			Priority:    rng.Int31() - rng.Int31(),
			Match:       randMatch(rng),
			IdleTimeout: float64(rng.Intn(100)) / 10,
			HardTimeout: float64(rng.Intn(1000)) / 10,
		}
		fm.Action.Kind = kinds[rng.Intn(len(kinds))]
		for j := rng.Intn(5); j > 0; j-- {
			fm.Action.Ports = append(fm.Action.Ports, rng.Intn(1<<16))
		}
		wire := must(MarshalFlowMod(fm))
		out, n, err := Unmarshal(wire)
		if err != nil || n != len(wire) {
			t.Fatalf("flow-mod %d: consumed %d of %d: %v", i, n, len(wire), err)
		}
		got := out.(FlowMod)
		if got.Command != fm.Command || got.Priority != fm.Priority || got.Match != fm.Match ||
			got.IdleTimeout != fm.IdleTimeout || got.HardTimeout != fm.HardTimeout ||
			got.Action.Kind != fm.Action.Kind || len(got.Action.Ports) != len(fm.Action.Ports) {
			t.Fatalf("flow-mod %d: got %+v want %+v", i, got, fm)
		}
		for j := range fm.Action.Ports {
			if got.Action.Ports[j] != fm.Action.Ports[j] {
				t.Fatalf("flow-mod %d port %d: %d != %d", i, j, got.Action.Ports[j], fm.Action.Ports[j])
			}
		}
	}
}
