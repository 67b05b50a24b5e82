package core

import (
	"fmt"
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/netsim"
)

type spreadBed struct {
	*testbed
	hosts []*netsim.Host
	sw    *netsim.Switch
	sd    *SpreadDetector
	ctrl  *Controller
}

// newSpreadBed wires n hosts into one switch with flooding disabled;
// the victim/spreader is hosts[0].
func newSpreadBed(t *testing.T, seed int64, mode SpreadMode, nHosts, buckets, k int) *spreadBed {
	t.Helper()
	tb := newTestbed(seed)
	sw := netsim.NewSwitch(tb.sim, "s1")
	var hosts []*netsim.Host
	for i := 0; i < nHosts; i++ {
		h := netsim.NewHost(tb.sim, fmt.Sprintf("h%d", i), netsim.MustAddr(fmt.Sprintf("10.0.0.%d", i+1)))
		netsim.Connect(tb.sim, h, 1, sw, i+1, 1e9, 0.0001, 0)
		hosts = append(hosts, h)
	}
	// Route every address to its port.
	for i, h := range hosts {
		sw.InstallRule(netsim.Rule{Priority: 1, Match: netsim.Match{Dst: h.Addr}, Action: netsim.Output(i + 1)})
	}
	voice := tb.voiceAt("s1", acoustic.Position{X: 1.2})
	sd, err := NewSpreadDetector(tb.plan, "s1", voice, mode, hosts[0].Addr, buckets, k)
	if err != nil {
		t.Fatal(err)
	}
	sw.Tap = sd.Tap
	ctrl := tb.controller(sd.Frequencies())
	sd.Start(ctrl, 0)
	ctrl.Start(0)
	return &spreadBed{testbed: tb, hosts: hosts, sw: sw, sd: sd, ctrl: ctrl}
}

func TestSuperspreaderDetected(t *testing.T) {
	bed := newSpreadBed(t, 60, ModeSuperspreader, 10, 24, 4)
	// hosts[0] contacts all 9 other hosts repeatedly (a scanner /
	// worm pattern).
	spreader := bed.hosts[0]
	bed.sim.Every(0.2, 0.2, func(now float64) {
		if now > 4 {
			return
		}
		for _, dst := range bed.hosts[1:] {
			spreader.Send(netsim.FiveTuple{
				Src: spreader.Addr, Dst: dst.Addr, SrcPort: 1234, DstPort: 80,
				Proto: netsim.ProtoTCP,
			}, 64)
		}
	})
	bed.sim.RunUntil(5)
	if len(bed.sd.Alerts) == 0 {
		t.Fatalf("superspreader missed; history %+v", bed.sd.History)
	}
	if got := bed.sd.Alerts[0].Distinct; got <= bed.sd.K {
		t.Errorf("alert distinct = %d, want > %d", got, bed.sd.K)
	}
}

func TestSuperspreaderIgnoresNormalClient(t *testing.T) {
	bed := newSpreadBed(t, 61, ModeSuperspreader, 10, 24, 4)
	// hosts[0] talks to just two peers — normal behaviour.
	client := bed.hosts[0]
	for i, dst := range bed.hosts[1:3] {
		netsim.StartPoisson(bed.sim, client, netsim.FiveTuple{
			Src: client.Addr, Dst: dst.Addr, SrcPort: 1234, DstPort: 80, Proto: netsim.ProtoTCP,
		}, 5, 200, 0, 4, int64(i))
	}
	bed.sim.RunUntil(5)
	if len(bed.sd.Alerts) != 0 {
		t.Errorf("normal client raised %d alerts", len(bed.sd.Alerts))
	}
}

func TestSuperspreaderIgnoresOtherSources(t *testing.T) {
	bed := newSpreadBed(t, 62, ModeSuperspreader, 10, 24, 4)
	// A different host fans out; the watched host is quiet.
	other := bed.hosts[5]
	bed.sim.Every(0.2, 0.2, func(now float64) {
		if now > 3 {
			return
		}
		for _, dst := range bed.hosts[1:] {
			if dst == other {
				continue
			}
			other.Send(netsim.FiveTuple{
				Src: other.Addr, Dst: dst.Addr, SrcPort: 9, DstPort: 80, Proto: netsim.ProtoTCP,
			}, 64)
		}
	})
	bed.sim.RunUntil(4)
	if bed.room.EmissionCount() != 0 {
		t.Errorf("unwatched source emitted %d tones", bed.room.EmissionCount())
	}
}

func TestDDoSVictimDetected(t *testing.T) {
	bed := newSpreadBed(t, 63, ModeDDoSVictim, 12, 24, 5)
	victim := bed.hosts[0]
	// 11 attackers hammer the victim.
	for i, atk := range bed.hosts[1:] {
		netsim.StartPoisson(bed.sim, atk, netsim.FiveTuple{
			Src: atk.Addr, Dst: victim.Addr, SrcPort: 6666, DstPort: 80, Proto: netsim.ProtoUDP,
		}, 8, 100, 0, 4, int64(70+i))
	}
	bed.sim.RunUntil(5)
	if len(bed.sd.Alerts) == 0 {
		t.Fatalf("DDoS missed; history %+v", bed.sd.History)
	}
	if got := bed.sd.Alerts[0].Distinct; got <= 5 {
		t.Errorf("distinct sources = %d, want > 5", got)
	}
}

func TestDDoSVictimQuietUnderSingleClient(t *testing.T) {
	bed := newSpreadBed(t, 64, ModeDDoSVictim, 12, 24, 5)
	victim := bed.hosts[0]
	client := bed.hosts[1]
	netsim.StartCBR(bed.sim, client, netsim.FiveTuple{
		Src: client.Addr, Dst: victim.Addr, SrcPort: 5, DstPort: 80, Proto: netsim.ProtoTCP,
	}, 50, 500, 0, 4)
	bed.sim.RunUntil(5)
	if len(bed.sd.Alerts) != 0 {
		t.Errorf("single busy client raised %d DDoS alerts", len(bed.sd.Alerts))
	}
}

func TestSpreadModeString(t *testing.T) {
	if ModeSuperspreader.String() != "superspreader" ||
		ModeDDoSVictim.String() != "ddos-victim" ||
		SpreadMode(9).String() != "unknown" {
		t.Error("mode names wrong")
	}
}

func TestSpreadBucketStable(t *testing.T) {
	bed := newSpreadBed(t, 65, ModeDDoSVictim, 4, 16, 3)
	a := netsim.MustAddr("10.9.9.9")
	if bed.sd.BucketOf(a) != bed.sd.BucketOf(a) {
		t.Error("bucket not stable")
	}
	if b := bed.sd.BucketOf(a); b < 0 || b >= 16 {
		t.Errorf("bucket %d out of range", b)
	}
}
