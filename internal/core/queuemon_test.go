package core

import (
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/netsim"
	"mdn/internal/openflow"
)

// qmBed wires the Figure 5c-d single-switch queue monitoring setup:
// h1 -- s1 -- h2 with a slow egress so the queue actually builds.
type qmBed struct {
	*testbed
	h1, h2 *netsim.Host
	sw     *netsim.Switch
	qm     *QueueMonitor
	ctrl   *Controller
}

func newQMBed(t *testing.T, seed int64, egressBps float64, queueCap int) *qmBed {
	t.Helper()
	tb := newTestbed(seed)
	h1 := netsim.NewHost(tb.sim, "h1", netsim.MustAddr("10.0.0.1"))
	h2 := netsim.NewHost(tb.sim, "h2", netsim.MustAddr("10.0.0.2"))
	sw := netsim.NewSwitch(tb.sim, "s1")
	netsim.Connect(tb.sim, h1, 1, sw, 1, 1e9, 0.0001, 0)
	netsim.Connect(tb.sim, sw, 2, h2, 1, egressBps, 0.0001, queueCap)
	sw.InstallRule(netsim.Rule{Priority: 1, Match: netsim.Match{Dst: h2.Addr}, Action: netsim.Output(2)})

	qm := tb.queueMonitor(t, sw, 2, tb.voiceAt("s1", acoustic.Position{X: 1}))
	ctrl := tb.controller(qm.Frequencies())
	ctrl.SubscribeWindows(qm.HandleWindow)
	qm.StartSwitchSide(tb.sim, 0.05)
	ctrl.Start(0)
	return &qmBed{testbed: tb, h1: h1, h2: h2, sw: sw, qm: qm, ctrl: ctrl}
}

// queueMonitor builds a monitor of sw's port whose level tones come
// from the testbed's frequency plan.
func (tb *testbed) queueMonitor(t *testing.T, sw *netsim.Switch, port int, voice *Voice) *QueueMonitor {
	t.Helper()
	qm, err := NewQueueMonitor(tb.plan, sw, port, voice)
	if err != nil {
		t.Fatal(err)
	}
	return qm
}

func TestQueueMonitorLevelOf(t *testing.T) {
	tb := newTestbed(40)
	voice := tb.voiceAt("s1", acoustic.Position{X: 1})
	sw := netsim.NewSwitch(tb.sim, "s1")
	qm := tb.queueMonitor(t, sw, 1, voice)
	cases := map[int]int{0: LevelLow, 24: LevelLow, 25: LevelMid, 75: LevelMid, 76: LevelHigh, 500: LevelHigh}
	for qlen, want := range cases {
		if got := qm.LevelOf(qlen); got != want {
			t.Errorf("LevelOf(%d) = %s, want %s", qlen, LevelName(got), LevelName(want))
		}
	}
	f := qm.Frequencies()
	if qm.LevelFor(f[0]) != LevelLow || qm.LevelFor(f[1]) != LevelMid || qm.LevelFor(f[2]) != LevelHigh {
		t.Error("LevelFor mapping wrong")
	}
	if qm.LevelFor(f[0]+DefaultSpacing) != -1 {
		t.Error("unknown frequency should map to -1")
	}
}

func TestQueueMonitorLevelOfBoundaries(t *testing.T) {
	// The paper's Section 6 spec: <25 packets plays the low tone,
	// 25–75 the mid tone, >75 the high tone. Both boundaries are
	// pinned exactly, for the defaults and for custom thresholds.
	tb := newTestbed(46)
	voice := tb.voiceAt("s1", acoustic.Position{X: 1})
	sw := netsim.NewSwitch(tb.sim, "s1")
	cases := []struct {
		name      string
		low, high int // 0,0 = keep defaults (25, 75)
		qlen      int
		want      int
	}{
		{"default below low boundary", 0, 0, 24, LevelLow},
		{"default at low boundary", 0, 0, 25, LevelMid},
		{"default at high boundary", 0, 0, 75, LevelMid},
		{"default above high boundary", 0, 0, 76, LevelHigh},
		{"custom below low boundary", 10, 20, 9, LevelLow},
		{"custom at low boundary", 10, 20, 10, LevelMid},
		{"custom at high boundary", 10, 20, 20, LevelMid},
		{"custom above high boundary", 10, 20, 21, LevelHigh},
	}
	for _, tc := range cases {
		qm, err := NewQueueMonitor(DefaultPlan(), sw, 1, voice)
		if err != nil {
			t.Fatal(err)
		}
		if tc.low != 0 {
			qm.LowThreshold = tc.low
			qm.HighThreshold = tc.high
		}
		if got := qm.LevelOf(tc.qlen); got != tc.want {
			t.Errorf("%s: LevelOf(%d) = %s, want %s",
				tc.name, tc.qlen, LevelName(got), LevelName(tc.want))
		}
	}
}

func TestQueueMonitorTracksRampAndDrain(t *testing.T) {
	// Egress 1 Mbps ≈ 83 pps at 1500 B. Offered: ramp 50 -> 300 pps
	// over 4 s, then stop and drain.
	bed := newQMBed(t, 41, 1e6, 200)
	f := netsim.FiveTuple{Src: bed.h1.Addr, Dst: bed.h2.Addr, SrcPort: 1, DstPort: 2, Proto: netsim.ProtoUDP}
	netsim.StartRamp(bed.sim, bed.h1, f, 50, 300, 1500, 0.2, 4)
	bed.sim.RunUntil(8)

	// Ground truth: the queue series must rise past the high
	// threshold then drain to low.
	sawHigh, endedLow := false, false
	for _, s := range bed.qm.QueueSeries {
		if s.Value > 75 {
			sawHigh = true
		}
	}
	last := bed.qm.QueueSeries[len(bed.qm.QueueSeries)-1]
	if last.Value < 25 {
		endedLow = true
	}
	if !sawHigh || !endedLow {
		t.Fatalf("queue series never congested or never drained (high=%v low=%v)", sawHigh, endedLow)
	}

	// The controller must have decoded the full low->mid->high
	// progression and the return to low.
	levels := bed.qm.HeardLevels()
	if len(levels) < 3 {
		t.Fatalf("heard levels = %v", levels)
	}
	if levels[0] != LevelLow {
		t.Errorf("first level = %s, want low", LevelName(levels[0]))
	}
	foundHigh := false
	for _, l := range levels {
		if l == LevelHigh {
			foundHigh = true
		}
	}
	if !foundHigh {
		t.Errorf("high level never heard: %v", levels)
	}
	if levels[len(levels)-1] != LevelLow {
		t.Errorf("final level = %s, want low after drain", LevelName(levels[len(levels)-1]))
	}
}

func TestQueueMonitorToneLogMatchesSeries(t *testing.T) {
	bed := newQMBed(t, 42, 1e6, 200)
	f := netsim.FiveTuple{Src: bed.h1.Addr, Dst: bed.h2.Addr, SrcPort: 1, DstPort: 2, Proto: netsim.ProtoUDP}
	netsim.StartCBR(bed.sim, bed.h1, f, 200, 1500, 0.2, 2)
	bed.sim.RunUntil(3)
	if len(bed.qm.ToneLog) != len(bed.qm.QueueSeries) {
		t.Fatalf("tone log %d entries, series %d", len(bed.qm.ToneLog), len(bed.qm.QueueSeries))
	}
	for i, s := range bed.qm.QueueSeries {
		if bed.qm.ToneLog[i].Level != bed.qm.LevelOf(int(s.Value)) {
			t.Fatalf("tone log %d disagrees with series", i)
		}
	}
}

func TestQueueMonitorPlanAllocation(t *testing.T) {
	tb := newTestbed(43)
	voice := tb.voiceAt("s1", acoustic.Position{X: 1})
	sw := netsim.NewSwitch(tb.sim, "s1")
	qm, err := NewQueueMonitor(tb.plan, sw, 2, voice)
	if err != nil {
		t.Fatal(err)
	}
	freqs := qm.Frequencies()
	if len(freqs) != 3 {
		t.Fatalf("freqs = %v", freqs)
	}
	// Guard-banded: 80 Hz apart.
	if freqs[1]-freqs[0] != 80 || freqs[2]-freqs[1] != 80 {
		t.Errorf("spacing = %v", freqs)
	}
	if dev, _, ok := tb.plan.Identify(freqs[0], 10); !ok || dev != "s1/queuemon" {
		t.Errorf("Identify = %q %v", dev, ok)
	}
}

func TestLoadBalancerSplitsOnCongestionTone(t *testing.T) {
	// Figure 5a-b end to end on the rhombus: ramping source, queue
	// tones, controller hears "high", installs the split Flow-MOD,
	// and the post-split upper-path queue stabilises.
	tb := newTestbed(44)
	// The diamond h1 — s1 — {s2 upper, s3 lower} — s4 — h2, with
	// 10 Mbps host links and 1 Mbps core links, so the ramp congests
	// s1's core-facing queue. Traffic to h2 takes the upper path.
	h1 := netsim.NewHost(tb.sim, "h1", netsim.MustAddr("10.0.0.1"))
	h2 := netsim.NewHost(tb.sim, "h2", netsim.MustAddr("10.0.0.2"))
	s1, s2, s3, s4 := netsim.NewSwitch(tb.sim, "s1"), netsim.NewSwitch(tb.sim, "s2"), netsim.NewSwitch(tb.sim, "s3"), netsim.NewSwitch(tb.sim, "s4")
	netsim.Connect(tb.sim, h1, 1, s1, 1, 1e7, 0.0001, 400)
	netsim.Connect(tb.sim, s1, 2, s2, 1, 1e6, 0.0001, 400)
	netsim.Connect(tb.sim, s1, 3, s3, 1, 1e6, 0.0001, 400)
	netsim.Connect(tb.sim, s2, 2, s4, 1, 1e6, 0.0001, 400)
	netsim.Connect(tb.sim, s3, 2, s4, 2, 1e6, 0.0001, 400)
	netsim.Connect(tb.sim, s4, 3, h2, 1, 1e7, 0.0001, 400)
	for _, s := range []*netsim.Switch{s1, s2, s3} {
		s.InstallRule(netsim.Rule{Priority: 1, Match: netsim.Match{Dst: h2.Addr}, Action: netsim.Output(2)})
	}
	s4.InstallRule(netsim.Rule{Priority: 1, Match: netsim.Match{Dst: h2.Addr}, Action: netsim.Output(3)})
	qm := tb.queueMonitor(t, s1, 2, tb.voiceAt("s1", acoustic.Position{X: 1}))
	ch := openflow.NewChannel(tb.sim, s1, 0.005)
	lb := NewLoadBalancer(qm, ch, openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Priority: 10,
		Match:    netsim.Match{Dst: h2.Addr},
		Action:   netsim.Split(2, 3),
	})
	ctrl := tb.controller(qm.Frequencies())
	ctrl.SubscribeWindows(qm.HandleWindow)
	ctrl.SubscribeWindows(lb.HandleWindow)
	qm.StartSwitchSide(tb.sim, 0.05)
	ctrl.Start(0)

	f := netsim.FiveTuple{Src: h1.Addr, Dst: h2.Addr, SrcPort: 1, DstPort: 2, Proto: netsim.ProtoUDP}
	// Offered load ramps to ~1.8x one link's capacity: one path
	// congests, two paths suffice.
	netsim.StartRamp(tb.sim, h1, f, 40, 150, 1500, 0.2, 10)
	tb.sim.RunUntil(10)

	if !lb.Triggered {
		t.Fatalf("congestion tone never acted on; heard levels %v", qm.HeardLevels())
	}
	if s3.RxPackets == 0 {
		t.Fatal("lower path still unused after split")
	}
	// After the split the upper queue must come back below the high
	// watermark.
	var postSplitMax float64
	for _, s := range qm.QueueSeries {
		if s.Time > lb.TriggeredAt+2 && s.Value > postSplitMax {
			postSplitMax = s.Value
		}
	}
	if postSplitMax > 75 {
		t.Errorf("upper queue still congested after split: max %g", postSplitMax)
	}
	if lb.Triggers != 1 {
		t.Errorf("triggers = %d, want 1 (one-shot)", lb.Triggers)
	}
}

func TestLevelName(t *testing.T) {
	if LevelName(LevelLow) != "low" || LevelName(LevelMid) != "mid" ||
		LevelName(LevelHigh) != "high" || LevelName(9) != "unknown" {
		t.Error("level names wrong")
	}
}
