package core

import (
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/netsim"
)

type scanBed struct {
	*testbed
	h1, h2 *netsim.Host
	sw     *netsim.Switch
	ps     *PortScan
	ctrl   *Controller
}

func newScanBed(t *testing.T, seed int64, firstPort uint16, numPorts int) *scanBed {
	t.Helper()
	tb := newTestbed(seed)
	h1 := netsim.NewHost(tb.sim, "h1", netsim.MustAddr("10.0.0.1"))
	h2 := netsim.NewHost(tb.sim, "h2", netsim.MustAddr("10.0.0.2"))
	sw := netsim.NewSwitch(tb.sim, "s1")
	netsim.Connect(tb.sim, h1, 1, sw, 1, 1e9, 0.0001, 0)
	netsim.Connect(tb.sim, h2, 1, sw, 2, 1e9, 0.0001, 0)
	sw.InstallRule(netsim.Rule{Priority: 1, Match: netsim.Match{Dst: h2.Addr}, Action: netsim.Output(2)})

	voice := tb.voiceAt("s1", acoustic.Position{X: 1.2})
	ps, err := NewPortScan(tb.plan, "s1", voice, firstPort, numPorts)
	if err != nil {
		t.Fatal(err)
	}
	sw.Tap = ps.Tap
	ctrl := tb.controller(ps.Frequencies())
	ps.Start(ctrl, 0)
	ctrl.Start(0)
	return &scanBed{testbed: tb, h1: h1, h2: h2, sw: sw, ps: ps, ctrl: ctrl}
}

func TestPortScanDetectsSequentialScan(t *testing.T) {
	bed := newScanBed(t, 30, 8000, 24)
	base := netsim.FiveTuple{
		Src: bed.h1.Addr, Dst: bed.h2.Addr,
		SrcPort: 44444, Proto: netsim.ProtoTCP,
	}
	// One probe per 200 ms — a naive sequential scan.
	netsim.StartPortScan(bed.sim, bed.h1, base, 8000, 24, 0.2, 0.2)
	bed.sim.RunUntil(6)

	if len(bed.ps.Alerts) == 0 {
		t.Fatalf("scan not detected; sweep had %d onsets", len(bed.ps.Sweep))
	}
	if got := bed.ps.Alerts[0].DistinctPorts; got < bed.ps.Threshold {
		t.Errorf("alert with %d ports, below threshold %d", got, bed.ps.Threshold)
	}
	// The sweep must be (weakly) monotone in frequency — the
	// paper's spectrogram line.
	if !bed.ps.SweepIsMonotone() {
		t.Error("sweep not monotone")
	}
	if len(bed.ps.Sweep) < 20 {
		t.Errorf("sweep captured %d of 24 probes", len(bed.ps.Sweep))
	}
}

func TestPortScanIgnoresNormalTraffic(t *testing.T) {
	bed := newScanBed(t, 31, 8000, 24)
	// Steady traffic to two ports: never enough distinct ports.
	f1 := netsim.FiveTuple{Src: bed.h1.Addr, Dst: bed.h2.Addr, SrcPort: 1, DstPort: 8003, Proto: netsim.ProtoTCP}
	f2 := netsim.FiveTuple{Src: bed.h1.Addr, Dst: bed.h2.Addr, SrcPort: 2, DstPort: 8010, Proto: netsim.ProtoTCP}
	netsim.StartCBR(bed.sim, bed.h1, f1, 20, 500, 0, 4)
	netsim.StartCBR(bed.sim, bed.h1, f2, 20, 500, 0, 4)
	bed.sim.RunUntil(4)
	if len(bed.ps.Alerts) != 0 {
		t.Errorf("normal traffic raised %d scan alerts", len(bed.ps.Alerts))
	}
}

func TestPortScanDetectsUnderSongNoise(t *testing.T) {
	// Figure 4d: the sweep survives the pop song.
	bed := newScanBed(t, 32, 8000, 24)
	bed.room.AddNoise(PopSongNoise(44100, 4, 0.02, 9))
	base := netsim.FiveTuple{Src: bed.h1.Addr, Dst: bed.h2.Addr, SrcPort: 4, Proto: netsim.ProtoTCP}
	netsim.StartPortScan(bed.sim, bed.h1, base, 8000, 24, 0.2, 0.2)
	bed.sim.RunUntil(6)
	if len(bed.ps.Alerts) == 0 {
		t.Fatalf("scan lost under song noise; sweep %d", len(bed.ps.Sweep))
	}
}

// feedPort runs one confirmed onset for freq through the filter: two
// consecutive present windows (ConfirmWindows=2) then one silent
// window so the next port's probe starts clean.
func feedPort(ps *PortScan, at float64, freq float64) float64 {
	det := Detection{Time: at, Frequency: freq, Amplitude: 0.01}
	ps.HandleWindow(at, []Detection{det})
	at += 0.05
	det.Time = at
	ps.HandleWindow(at, []Detection{det}) // confirmed here
	at += 0.05
	ps.HandleWindow(at, nil)
	return at + 0.05
}

// TestPortScanOneAlertPerInterval is the regression test for the
// duplicate-alert bug: within one interval the alert fires exactly
// once, at the moment the distinct-port count crosses Threshold, no
// matter how many more ports the scan touches afterwards. A new
// interval re-arms it.
func TestPortScanOneAlertPerInterval(t *testing.T) {
	bed := newScanBed(t, 36, 8000, 12)
	ps := bed.ps
	ps.Threshold = 3
	freqs := ps.Frequencies()

	// Sweep 8 ports — well past the threshold of 3 — in one interval.
	at := 1.0
	for i := 0; i < 8; i++ {
		at = feedPort(ps, at, freqs[i])
	}
	if len(ps.Alerts) != 1 {
		t.Fatalf("one interval raised %d alerts, want exactly 1", len(ps.Alerts))
	}
	// The alert fires at the crossing: exactly Threshold distinct
	// ports, not the interval's final count.
	if got := ps.Alerts[0].DistinctPorts; got != ps.Threshold {
		t.Errorf("alert at %d distinct ports, want %d (fire at crossing)", got, ps.Threshold)
	}
	// Its timestamp is the third port's confirmation window, long
	// before the eighth probe.
	if ps.Alerts[0].Time >= at-0.1 {
		t.Errorf("alert time %g not at the crossing (sweep ended %g)", ps.Alerts[0].Time, at)
	}

	// Interval closes: the guard re-arms and a fresh sweep raises
	// exactly one more alert.
	ps.closeInterval(at)
	for i := 0; i < 6; i++ {
		at = feedPort(ps, at, freqs[i])
	}
	if len(ps.Alerts) != 2 {
		t.Fatalf("after interval close, %d alerts total, want 2", len(ps.Alerts))
	}
	if ps.events != 2 {
		t.Errorf("events counter = %d, want 2", ps.events)
	}
}

// TestPortScanHistoryBounded pins the keep-last-N bound on Sweep with
// the eviction counter.
func TestPortScanHistoryBounded(t *testing.T) {
	bed := newScanBed(t, 37, 8000, 12)
	ps := bed.ps
	ps.Threshold = 100 // never alert; isolate the Sweep bound
	freqs := ps.Frequencies()
	at := 1.0
	for i := 0; i < historyMax+6; i++ {
		at = feedPort(ps, at, freqs[i%5])
		if i%5 == 4 {
			ps.closeInterval(at)
		}
	}
	if len(ps.Sweep) != historyMax {
		t.Errorf("sweep holds %d entries, want bound of %d", len(ps.Sweep), historyMax)
	}
	if ps.HistoryDropped != 6 {
		t.Errorf("HistoryDropped = %d, want 6 (onsets beyond the bound)", ps.HistoryDropped)
	}
	// The survivors are the most recent onsets.
	for i := 1; i < len(ps.Sweep); i++ {
		if ps.Sweep[i].Time < ps.Sweep[i-1].Time {
			t.Fatal("bounded sweep out of order")
		}
	}
}

func TestPortScanFrequencyMapping(t *testing.T) {
	bed := newScanBed(t, 33, 100, 10)
	if f := bed.ps.FrequencyFor(99); f != 0 {
		t.Errorf("below-range port mapped to %g", f)
	}
	if f := bed.ps.FrequencyFor(110); f != 0 {
		t.Errorf("above-range port mapped to %g", f)
	}
	f := bed.ps.FrequencyFor(105)
	if f == 0 {
		t.Fatal("in-range port unmapped")
	}
	port, ok := bed.ps.PortFor(f)
	if !ok || port != 105 {
		t.Errorf("PortFor(%g) = %d %v", f, port, ok)
	}
	if _, ok := bed.ps.PortFor(12345); ok {
		t.Error("unknown frequency should not map")
	}
}

func TestPortScanOutOfRangePortsPlayNothing(t *testing.T) {
	bed := newScanBed(t, 34, 8000, 8)
	f := netsim.FiveTuple{Src: bed.h1.Addr, Dst: bed.h2.Addr, SrcPort: 1, DstPort: 9999, Proto: netsim.ProtoTCP}
	bed.sim.Schedule(0.1, func() { bed.h1.Send(f, 64) })
	bed.sim.RunUntil(1)
	if bed.room.EmissionCount() != 0 {
		t.Error("out-of-range port emitted a tone")
	}
}

func TestPortScanSweepIsMonotoneEmptyFalse(t *testing.T) {
	bed := newScanBed(t, 35, 8000, 8)
	if bed.ps.SweepIsMonotone() {
		t.Error("empty sweep should report false")
	}
}
