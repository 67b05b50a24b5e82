package core

import (
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/netsim"
)

// congestionBed: the Figure 5c topology with a paced (controllable)
// source and the MDN congestion controller in the loop.
type congestionBed struct {
	*testbed
	h1, h2 *netsim.Host
	sw     *netsim.Switch
	qm     *QueueMonitor
	src    *netsim.PacedSource
	cc     *CongestionController
	egress *netsim.Port
}

func newCongestionBed(t *testing.T, seed int64, withControl bool) *congestionBed {
	t.Helper()
	tb := newTestbed(seed)
	h1 := netsim.NewHost(tb.sim, "h1", netsim.MustAddr("10.0.0.1"))
	h2 := netsim.NewHost(tb.sim, "h2", netsim.MustAddr("10.0.0.2"))
	sw := netsim.NewSwitch(tb.sim, "s1")
	netsim.Connect(tb.sim, h1, 1, sw, 1, 1e9, 0.0001, 0)
	egress, _ := netsim.Connect(tb.sim, sw, 2, h2, 1, 1e6, 0.0001, 100)
	sw.InstallRule(netsim.Rule{Priority: 1, Match: netsim.Match{Dst: h2.Addr}, Action: netsim.Output(2)})

	qm := tb.queueMonitor(t, sw, 2, tb.voiceAt("s1", acoustic.Position{X: 1}))
	flow := netsim.FiveTuple{Src: h1.Addr, Dst: h2.Addr, SrcPort: 1, DstPort: 2, Proto: netsim.ProtoUDP}
	// Offered 250 pps against ~83 pps of capacity: heavy overload.
	src := netsim.StartPaced(tb.sim, h1, flow, 250, 1500, 0.2, 20)

	bed := &congestionBed{testbed: tb, h1: h1, h2: h2, sw: sw, qm: qm, src: src, egress: egress}
	qm.StartSwitchSide(tb.sim, 0.05)
	if withControl {
		ctrl := tb.controller(qm.Frequencies())
		bed.cc = NewCongestionController(qm, src)
		ctrl.SubscribeWindows(qm.HandleWindow)
		ctrl.SubscribeWindows(bed.cc.HandleWindow)
		ctrl.Start(0)
	}
	return bed
}

func TestCongestionControllerReducesDrops(t *testing.T) {
	withCtl := newCongestionBed(t, 90, true)
	withCtl.sim.RunUntil(20)
	without := newCongestionBed(t, 90, false)
	without.sim.RunUntil(20)

	dropsCtl := withCtl.egress.Out.Drops()
	dropsNone := without.egress.Out.Drops()
	if dropsNone == 0 {
		t.Fatal("uncontrolled run should overflow the queue")
	}
	if dropsCtl*2 >= dropsNone {
		t.Errorf("controlled drops %d not well below uncontrolled %d", dropsCtl, dropsNone)
	}
	if withCtl.cc.Decreases == 0 {
		t.Error("controller never decreased the rate")
	}
	// Rate must have come down from 250 toward link capacity.
	if r := withCtl.src.Rate(); r > 150 {
		t.Errorf("final rate %g pps; expected AIMD to pull it down", r)
	}
}

func TestCongestionControllerRecoversRate(t *testing.T) {
	bed := newCongestionBed(t, 91, true)
	// Source stops at t=20; afterwards the queue drains, the low
	// tone returns, and additive increase resumes.
	bed.sim.RunUntil(25)
	if bed.cc.Increases == 0 {
		t.Error("no additive increases after drain")
	}
}

func TestCongestionControllerMinRateFloor(t *testing.T) {
	bed := newCongestionBed(t, 92, true)
	// Hammer it with synthetic congested onsets.
	high := Detection{Frequency: bed.qm.Frequencies()[LevelHigh], Amplitude: 0.01}
	for i := 0; i < 20; i++ {
		bed.cc.HandleWindow(float64(i), []Detection{high})
		bed.cc.HandleWindow(float64(i)+0.5, nil)
		bed.cc.HandleWindow(float64(i)+0.6, []Detection{high})
	}
	if r := bed.src.Rate(); r != minPPS {
		t.Errorf("rate %g, want the floor %d", r, minPPS)
	}
}

func TestPacedSourceSetRate(t *testing.T) {
	sim := netsim.NewSim()
	h1 := netsim.NewHost(sim, "h1", netsim.MustAddr("10.0.0.1"))
	h2 := netsim.NewHost(sim, "h2", netsim.MustAddr("10.0.0.2"))
	netsim.Connect(sim, h1, 1, h2, 1, 1e9, 0, 0)
	f := netsim.FiveTuple{Src: h1.Addr, Dst: h2.Addr, SrcPort: 1, DstPort: 2, Proto: netsim.ProtoUDP}
	src := netsim.StartPaced(sim, h1, f, 100, 100, 0, 10)
	sim.After(1, func() { src.SetRate(10) })
	sim.RunUntil(2)
	// ~100 packets in second one, ~10 in second two.
	if h2.RxPackets < 100 || h2.RxPackets > 125 {
		t.Errorf("received = %d, want ~110", h2.RxPackets)
	}
	src.SetRate(0.01)
	if src.Rate() != 0.1 {
		t.Errorf("rate floor = %g, want 0.1", src.Rate())
	}
}
