package core

import (
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/netsim"
)

func TestManagerDeploysMultipleApps(t *testing.T) {
	tb := newTestbed(300)
	sw := netsim.NewSwitch(tb.sim, "s1")
	h1 := netsim.NewHost(tb.sim, "h1", netsim.MustAddr("10.0.0.1"))
	h2 := netsim.NewHost(tb.sim, "h2", netsim.MustAddr("10.0.0.2"))
	netsim.Connect(tb.sim, h1, 1, sw, 1, 1e9, 0.0001, 0)
	netsim.Connect(tb.sim, h2, 1, sw, 2, 1e9, 0.0001, 0)
	sw.InstallRule(netsim.Rule{Priority: 1, Match: netsim.Match{Dst: h2.Addr}, Action: netsim.Output(2)})
	voice := tb.voiceAt("s1", acoustic.Position{X: 1.2})

	hh, err := NewHeavyHitter(tb.plan, "s1", voice, 8)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPortScan(tb.plan, "s1", voice, 9000, 8)
	if err != nil {
		t.Fatal(err)
	}
	sw.Tap = func(p *netsim.Packet, in int) {
		hh.Tap(p, in)
		ps.Tap(p, in)
	}

	m := NewManager(tb.sim, tb.mic, tb.plan)
	if err := m.Deploy(hh); err != nil {
		t.Fatal(err)
	}
	if err := m.Deploy(ps); err != nil {
		t.Fatal(err)
	}
	if len(m.apps) != 2 {
		t.Fatalf("apps = %d", len(m.apps))
	}
	m.Start(0)

	// Heavy flow + scan; both apps must see their events.
	elephant := netsim.FiveTuple{Src: h1.Addr, Dst: h2.Addr, SrcPort: 7, DstPort: 80, Proto: netsim.ProtoTCP}
	netsim.StartCBR(tb.sim, h1, elephant, 200, 1000, 0.2, 4)
	netsim.StartPortScan(tb.sim, h1,
		netsim.FiveTuple{Src: h1.Addr, Dst: h2.Addr, SrcPort: 9, Proto: netsim.ProtoTCP},
		9000, 8, 0.3, 0.3)
	tb.sim.RunUntil(4)

	if len(hh.Reports) == 0 {
		t.Error("heavy hitter saw nothing through the manager")
	}
	if len(ps.Sweep) < 6 {
		t.Errorf("port scan sweep = %d, want most of 8", len(ps.Sweep))
	}
}

func TestManagerRejectsUnplannedFrequencies(t *testing.T) {
	tb := newTestbed(301)
	m := NewManager(tb.sim, tb.mic, tb.plan)
	sw := netsim.NewSwitch(tb.sim, "s1")
	voice := tb.voiceAt("s1", acoustic.Position{X: 1})
	// Explicit tones bypass the plan: the manager must refuse them.
	qm := NewQueueMonitorWithTones(sw, 2, voice, [3]float64{501, 601, 701})
	if err := m.Deploy(qm); err == nil {
		t.Fatal("unplanned frequencies accepted")
	}
	// A planned monitor is fine.
	qm2, err := NewQueueMonitor(tb.plan, sw, 2, voice)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Deploy(qm2); err != nil {
		t.Fatalf("planned monitor rejected: %v", err)
	}
}

func TestManagerDeployAfterStartFails(t *testing.T) {
	tb := newTestbed(302)
	m := NewManager(tb.sim, tb.mic, nil) // nil plan: no validation
	sw := netsim.NewSwitch(tb.sim, "s1")
	voice := tb.voiceAt("s1", acoustic.Position{X: 1})
	qm := NewQueueMonitorWithTones(sw, 2, voice, DefaultQueueFrequencies)
	if err := m.Deploy(qm); err != nil {
		t.Fatal(err)
	}
	m.Start(0)
	m.Start(0) // idempotent
	qm2 := NewQueueMonitorWithTones(sw, 3, voice, [3]float64{800, 900, 1000})
	if err := m.Deploy(qm2); err == nil {
		t.Fatal("deploy after start accepted")
	}
}

type emptyApp struct{}

func (emptyApp) Frequencies() []float64            { return nil }
func (emptyApp) HandleWindow(float64, []Detection) {}

func TestManagerRejectsEmptyApp(t *testing.T) {
	tb := newTestbed(303)
	m := NewManager(tb.sim, tb.mic, nil)
	if err := m.Deploy(emptyApp{}); err == nil {
		t.Fatal("app without frequencies accepted")
	}
}
