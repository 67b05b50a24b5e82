package core

import (
	"math/rand"
	"slices"
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/netsim"
	"mdn/internal/openflow"
)

// knockBed wires the full Section 4 topology: h1 -- s1 -- h2, with
// the switch voiced and the controller listening.
type knockBed struct {
	*testbed
	h1, h2 *netsim.Host
	sw     *netsim.Switch
	pk     *PortKnock
	ctrl   *Controller
}

func newKnockBed(t *testing.T, sequence []uint16) *knockBed {
	t.Helper()
	tb := newTestbed(10)
	h1 := netsim.NewHost(tb.sim, "h1", netsim.MustAddr("10.0.0.1"))
	h2 := netsim.NewHost(tb.sim, "h2", netsim.MustAddr("10.0.0.2"))
	sw := netsim.NewSwitch(tb.sim, "s1")
	netsim.Connect(tb.sim, h1, 1, sw, 1, 1e9, 0.0001, 0)
	netsim.Connect(tb.sim, h2, 1, sw, 2, 1e9, 0.0001, 0)

	voice := tb.voiceAt("s1", acoustic.Position{X: 1.5})
	ch := openflow.NewChannel(tb.sim, sw, 0.005)
	openRule := openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Priority: 10,
		Match:    netsim.Match{Dst: h2.Addr, DstPort: 8080},
		Action:   netsim.Output(2),
	}
	pk, err := NewPortKnock(tb.plan, "s1", voice, ch, sequence, openRule)
	if err != nil {
		t.Fatal(err)
	}
	sw.Tap = pk.Tap

	ctrl := tb.controller(pk.Frequencies())
	ctrl.SubscribeWindows(pk.HandleWindow)
	ctrl.Start(0)
	return &knockBed{testbed: tb, h1: h1, h2: h2, sw: sw, pk: pk, ctrl: ctrl}
}

func (kb *knockBed) knock(at float64, port uint16) {
	kb.sim.Schedule(at, func() {
		kb.h1.Send(netsim.FiveTuple{
			Src: kb.h1.Addr, Dst: kb.h2.Addr,
			SrcPort: 40000, DstPort: port, Proto: netsim.ProtoTCP,
		}, 64)
	})
}

func (kb *knockBed) sendData(at float64) {
	kb.sim.Schedule(at, func() {
		kb.h1.Send(netsim.FiveTuple{
			Src: kb.h1.Addr, Dst: kb.h2.Addr,
			SrcPort: 40001, DstPort: 8080, Proto: netsim.ProtoTCP,
		}, 1500)
	})
}

func TestPortKnockOpensOnCorrectSequence(t *testing.T) {
	kb := newKnockBed(t, []uint16{1001, 1002, 1003})

	// Data before knocking: dropped (no rule matches port 8080).
	kb.sendData(0.1)
	// The knock, well spaced so each tone is distinct.
	kb.knock(0.5, 1001)
	kb.knock(1.0, 1002)
	kb.knock(1.5, 1003)
	// Data after the knock completes.
	kb.sendData(2.5)
	kb.sendData(2.6)
	kb.sim.RunUntil(3)

	if !kb.pk.Opened {
		t.Fatalf("port not opened; fsm state %s, wrong knocks %d",
			kb.pk.State(), kb.pk.WrongKnocks)
	}
	if kb.pk.OpenedAt < 1.5 || kb.pk.OpenedAt > 2.0 {
		t.Errorf("opened at %g, want shortly after the third knock", kb.pk.OpenedAt)
	}
	if kb.h2.RxPackets != 2 {
		t.Errorf("h2 received %d packets, want exactly the 2 post-knock ones", kb.h2.RxPackets)
	}
}

func TestPortKnockWrongOrderNeverOpens(t *testing.T) {
	kb := newKnockBed(t, []uint16{1001, 1002, 1003})
	kb.knock(0.5, 1002)
	kb.knock(1.0, 1001)
	kb.knock(1.5, 1003)
	kb.sendData(2.5)
	kb.sim.RunUntil(3)

	if kb.pk.Opened {
		t.Fatal("wrong knock order opened the port")
	}
	if kb.pk.WrongKnocks == 0 {
		t.Error("wrong knocks not counted")
	}
	if kb.h2.RxPackets != 0 {
		t.Errorf("h2 received %d packets through a closed port", kb.h2.RxPackets)
	}
}

func TestPortKnockRecoversAfterWrongAttempt(t *testing.T) {
	kb := newKnockBed(t, []uint16{1001, 1002, 1003})
	// Failed attempt, then a clean one.
	kb.knock(0.5, 1001)
	kb.knock(1.0, 1003) // wrong
	kb.knock(2.0, 1001)
	kb.knock(2.5, 1002)
	kb.knock(3.0, 1003)
	kb.sim.RunUntil(4)
	if !kb.pk.Opened {
		t.Fatalf("recovery knock failed; state %s", kb.pk.State())
	}
}

func TestPortKnockUnrelatedTrafficIgnored(t *testing.T) {
	kb := newKnockBed(t, []uint16{1001, 1002})
	// Traffic on ports outside the knock set plays no tones.
	kb.sim.Schedule(0.2, func() {
		kb.h1.Send(netsim.FiveTuple{
			Src: kb.h1.Addr, Dst: kb.h2.Addr,
			SrcPort: 40000, DstPort: 9999, Proto: netsim.ProtoTCP,
		}, 64)
	})
	kb.sim.RunUntil(1)
	if kb.room.EmissionCount() != 0 {
		t.Errorf("unrelated traffic emitted %d tones", kb.room.EmissionCount())
	}
	if kb.pk.Opened {
		t.Error("port opened without knocks")
	}
}

func TestPortKnockRepeatedPortInSequence(t *testing.T) {
	kb := newKnockBed(t, []uint16{1001, 1001, 1002})
	kb.knock(0.5, 1001)
	kb.knock(1.0, 1001)
	kb.knock(1.5, 1002)
	kb.sim.RunUntil(2.5)
	if !kb.pk.Opened {
		t.Fatalf("repeated-port sequence failed; state %s", kb.pk.State())
	}
	// Only two frequencies should have been allocated (distinct ports).
	if got := len(kb.pk.Frequencies()); got != 2 {
		t.Errorf("frequencies = %d, want 2", got)
	}
}

func TestPortKnockRejectsEmptySequence(t *testing.T) {
	tb := newTestbed(11)
	voice := tb.voiceAt("s1", acoustic.Position{X: 1})
	if _, err := NewPortKnock(tb.plan, "s1", voice, nil, nil, openflow.FlowMod{}); err == nil {
		t.Fatal("empty sequence accepted")
	}
}

func TestPortKnockAutoClosesOnIdleTimeout(t *testing.T) {
	kb := newKnockBed(t, []uint16{1001, 1002, 1003})
	// Harden the opening rule: the port closes itself again after
	// 2 s without authorised traffic, so the knock must be repeated.
	kb.pk.OpenRule.IdleTimeout = 2.0
	kb.knock(0.5, 1001)
	kb.knock(1.0, 1002)
	kb.knock(1.5, 1003)
	kb.sendData(2.5) // delivered: port open
	// Silence until well past the idle timeout, then try again.
	kb.sendData(6.0) // dropped: rule idled out
	kb.sim.RunUntil(7)
	if !kb.pk.Opened {
		t.Fatal("port never opened")
	}
	if kb.h2.RxPackets != 1 {
		t.Errorf("delivered = %d, want 1 (second packet after auto-close)", kb.h2.RxPackets)
	}
	if len(kb.sw.Rules()) != 0 {
		t.Errorf("opening rule still installed after idle timeout")
	}
}

// bareKnock builds a port knock on its own simulator and switch, with
// no controller: the test feeds its windows by hand.
func bareKnock(t *testing.T, sequence []uint16) (*netsim.Sim, *PortKnock) {
	t.Helper()
	tb := newTestbed(12)
	sw := netsim.NewSwitch(tb.sim, "s1")
	ch := openflow.NewChannel(tb.sim, sw, 0.005)
	openRule := openflow.FlowMod{Command: openflow.FlowAdd, Priority: 10, Action: netsim.Output(2)}
	pk, err := NewPortKnock(tb.plan, "s1", tb.voiceAt("s1", acoustic.Position{X: 1}), ch, sequence, openRule)
	if err != nil {
		t.Fatal(err)
	}
	return tb.sim, pk
}

// TestPortKnockIgnoresForeignDetections: other devices' tones in a
// window, one of them heard by two mics, do not change what the knock
// sees. A knock fed random windows with foreign detections interleaved
// must keep its FSM and open state identical, window for window, to a
// knock fed the same windows stripped to its own tones.
func TestPortKnockIgnoresForeignDetections(t *testing.T) {
	for _, seq := range [][]uint16{{1001, 1002, 1003}, {1001, 1001, 1002}} {
		mixedSim, mixed := bareKnock(t, seq)
		strippedSim, stripped := bareKnock(t, seq)
		own := mixed.Frequencies()
		foreign := []float64{own[0] - 50, own[0] + 50, own[len(own)-1] + 100, 3000, 9000.5}
		rng := rand.New(rand.NewSource(int64(len(seq)) + int64(seq[1])))
		var all, mine []Detection
		for w := 0; w < 3000; w++ {
			at := float64(w+1) * DefaultWindow
			all = all[:0]
			for _, f := range own {
				if rng.Intn(2) == 0 {
					all = append(all, Detection{Time: at, Frequency: f, Amplitude: rng.Float64()})
				}
			}
			for _, f := range foreign {
				if rng.Intn(2) == 0 {
					all = append(all, Detection{Time: at, Frequency: f, Amplitude: rng.Float64()})
				}
			}
			// A second mic hears a foreign tone, and sometimes a knock tone.
			if rng.Intn(2) == 0 {
				all = append(all, Detection{Time: at, Frequency: foreign[0], Amplitude: rng.Float64()})
			}
			if rng.Intn(8) == 0 {
				all = append(all, Detection{Time: at, Frequency: own[0], Amplitude: rng.Float64()})
			}
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			mine = mine[:0]
			for _, d := range all {
				if slices.Contains(own, d.Frequency) {
					mine = append(mine, d)
				}
			}
			mixedSim.RunUntil(at)
			strippedSim.RunUntil(at)
			mixed.HandleWindow(at, all)
			stripped.HandleWindow(at, mine)
			if mixed.Accepts() != stripped.Accepts() || mixed.WrongKnocks != stripped.WrongKnocks ||
				mixed.Opened != stripped.Opened || mixed.OpenedAt != stripped.OpenedAt {
				t.Fatalf("sequence %v, window %d: with foreign tones accepts=%d wrong=%d opened=%v at %g; without accepts=%d wrong=%d opened=%v at %g",
					seq, w, mixed.Accepts(), mixed.WrongKnocks, mixed.Opened, mixed.OpenedAt,
					stripped.Accepts(), stripped.WrongKnocks, stripped.Opened, stripped.OpenedAt)
			}
		}
		if mixed.Accepts() == 0 || mixed.WrongKnocks == 0 || !mixed.Opened {
			t.Errorf("sequence %v: accepts=%d wrong=%d opened=%v, want the FSM exercised both ways",
				seq, mixed.Accepts(), mixed.WrongKnocks, mixed.Opened)
		}
	}
}
