package core

import (
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/netsim"
)

// hhBed wires a single switch carrying a traffic mix with the
// heavy-hitter telemetry attached.
type hhBed struct {
	*testbed
	h1, h2 *netsim.Host
	sw     *netsim.Switch
	hh     *HeavyHitter
	ctrl   *Controller
}

func newHHBed(t *testing.T, seed int64, buckets int) *hhBed {
	t.Helper()
	tb := newTestbed(seed)
	h1 := netsim.NewHost(tb.sim, "h1", netsim.MustAddr("10.0.0.1"))
	h2 := netsim.NewHost(tb.sim, "h2", netsim.MustAddr("10.0.0.2"))
	sw := netsim.NewSwitch(tb.sim, "s1")
	netsim.Connect(tb.sim, h1, 1, sw, 1, 1e9, 0.0001, 0)
	netsim.Connect(tb.sim, h2, 1, sw, 2, 1e9, 0.0001, 0)
	sw.InstallRule(netsim.Rule{Priority: 1, Match: netsim.Match{Dst: h2.Addr}, Action: netsim.Output(2)})

	voice := tb.voiceAt("s1", acoustic.Position{X: 1.2})
	hh, err := NewHeavyHitter(tb.plan, "s1", voice, buckets)
	if err != nil {
		t.Fatal(err)
	}
	sw.Tap = hh.Tap
	ctrl := tb.controller(hh.Frequencies())
	hh.Start(ctrl, 0)
	ctrl.Start(0)
	return &hhBed{testbed: tb, h1: h1, h2: h2, sw: sw, hh: hh, ctrl: ctrl}
}

func flowTo(h2 *netsim.Host, srcPort uint16) netsim.FiveTuple {
	return netsim.FiveTuple{
		Src: netsim.MustAddr("10.0.0.1"), Dst: h2.Addr,
		SrcPort: srcPort, DstPort: 80, Proto: netsim.ProtoTCP,
	}
}

func TestHeavyHitterFlagsElephantNotMice(t *testing.T) {
	bed := newHHBed(t, 20, 16)
	elephant := flowTo(bed.h2, 5000)
	// Pick mice that do not share the elephant's bucket, as the
	// paper's per-flow frequency assumption requires.
	eBucket := bed.hh.BucketOf(elephant)
	var mice []netsim.FiveTuple
	for p := uint16(6000); len(mice) < 4; p++ {
		f := flowTo(bed.h2, p)
		if bed.hh.BucketOf(f) != eBucket {
			mice = append(mice, f)
		}
	}
	// Elephant: 200 pps. Mice: 1.5 pps each.
	netsim.StartCBR(bed.sim, bed.h1, elephant, 200, 1500, 0.1, 5)
	for i, m := range mice {
		netsim.StartPoisson(bed.sim, bed.h1, m, 1.5, 300, 0.1, 5, int64(100+i))
	}
	bed.sim.RunUntil(5)

	flagged := bed.hh.FlaggedBuckets()
	if len(flagged) == 0 {
		t.Fatalf("no heavy hitter flagged; history %+v", bed.hh.History)
	}
	for _, b := range flagged {
		if b != eBucket {
			t.Errorf("false positive: bucket %d flagged (elephant is %d)", b, eBucket)
		}
	}
	if len(bed.hh.Reports) < 3 {
		t.Errorf("elephant should be flagged in most intervals: %d reports", len(bed.hh.Reports))
	}
}

func TestHeavyHitterQuietWithoutTraffic(t *testing.T) {
	bed := newHHBed(t, 21, 8)
	bed.sim.RunUntil(3)
	if len(bed.hh.Reports) != 0 {
		t.Errorf("idle network flagged %d heavy hitters", len(bed.hh.Reports))
	}
	if len(bed.hh.History) != 3 {
		t.Errorf("history = %d intervals, want 3", len(bed.hh.History))
	}
}

func TestHeavyHitterUnderSongNoise(t *testing.T) {
	// Figure 4b: detection still works while a pop song plays.
	bed := newHHBed(t, 22, 16)
	song := PopSongNoise(44100, 4, 0.02, 7)
	bed.room.AddNoise(song)

	elephant := flowTo(bed.h2, 5000)
	netsim.StartCBR(bed.sim, bed.h1, elephant, 200, 1500, 0.1, 4)
	bed.sim.RunUntil(4)

	eBucket := bed.hh.BucketOf(elephant)
	found := false
	for _, b := range bed.hh.FlaggedBuckets() {
		if b == eBucket {
			found = true
		}
	}
	if !found {
		t.Errorf("elephant lost under song noise; flagged %v, history %+v",
			bed.hh.FlaggedBuckets(), bed.hh.History)
	}
}

func TestHeavyHitterBucketOfStable(t *testing.T) {
	bed := newHHBed(t, 23, 16)
	f := flowTo(bed.h2, 1234)
	b1 := bed.hh.BucketOf(f)
	b2 := bed.hh.BucketOf(f)
	if b1 != b2 {
		t.Error("bucket not stable")
	}
	if b1 < 0 || b1 >= 16 {
		t.Errorf("bucket %d out of range", b1)
	}
}

func TestHeavyHitterHistoryCountsRateLimited(t *testing.T) {
	// Even a very fast flow cannot produce more onsets per second
	// than VoiceMinGap allows (~6.7/s at 150 ms).
	bed := newHHBed(t, 24, 8)
	netsim.StartCBR(bed.sim, bed.h1, flowTo(bed.h2, 777), 1000, 1500, 0, 2)
	bed.sim.RunUntil(2)
	for _, s := range bed.hh.History {
		for b, c := range s.Counts {
			if c > 8 {
				t.Errorf("bucket %d counted %d onsets in 1 s, exceeds rate limit", b, c)
			}
		}
	}
}
