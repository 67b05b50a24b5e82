package netsim

import "testing"

func TestRhombusSinglePathInitially(t *testing.T) {
	sim := NewSim()
	link := LinkSpec{RateBps: 1e9, Latency: 0.001}
	r := NewRhombusLinks(sim, link, link)
	f := FiveTuple{Src: r.H1.Addr, Dst: r.H2.Addr, SrcPort: 1, DstPort: 2, Proto: ProtoUDP}
	for i := 0; i < 10; i++ {
		r.H1.Send(f, 100)
	}
	sim.Run()
	if r.H2.RxPackets != 10 {
		t.Fatalf("h2 rx = %d", r.H2.RxPackets)
	}
	if r.S2.RxPackets != 10 {
		t.Errorf("upper path rx = %d, want all 10", r.S2.RxPackets)
	}
	if r.S3.RxPackets != 0 {
		t.Errorf("lower path rx = %d, want 0 before balancing", r.S3.RxPackets)
	}
}

func TestRhombusBalanceSplitsTraffic(t *testing.T) {
	sim := NewSim()
	link := LinkSpec{RateBps: 1e9, Latency: 0.001}
	r := NewRhombusLinks(sim, link, link)
	// The Flow-MOD the MDN controller installs on the congestion tone
	// (Figure 5a): traffic to h2 round-robins across both paths.
	r.S1.InstallRule(Rule{Priority: 10, Match: Match{Dst: r.H2.Addr}, Action: Split(2, 3)})
	f := FiveTuple{Src: r.H1.Addr, Dst: r.H2.Addr, SrcPort: 1, DstPort: 2, Proto: ProtoUDP}
	for i := 0; i < 10; i++ {
		r.H1.Send(f, 100)
	}
	sim.Run()
	if r.H2.RxPackets != 10 {
		t.Fatalf("h2 rx = %d", r.H2.RxPackets)
	}
	if r.S2.RxPackets != 5 || r.S3.RxPackets != 5 {
		t.Errorf("split = %d/%d, want 5/5", r.S2.RxPackets, r.S3.RxPackets)
	}
}

func TestRhombusReversePath(t *testing.T) {
	sim := NewSim()
	link := LinkSpec{RateBps: 1e9, Latency: 0.001}
	r := NewRhombusLinks(sim, link, link)
	f := FiveTuple{Src: r.H2.Addr, Dst: r.H1.Addr, SrcPort: 2, DstPort: 1, Proto: ProtoUDP}
	r.H2.Send(f, 100)
	sim.Run()
	if r.H1.RxPackets != 1 {
		t.Errorf("h1 rx = %d", r.H1.RxPackets)
	}
}
