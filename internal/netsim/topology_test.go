package netsim

import "testing"

// rhombus is the paper's load-balancing topology (Section 6): four
// switches in a diamond with the two hosts on opposite vertices, every
// link 1 Gbps with 1 ms latency.
//
//	        s2 (upper path)
//	       /  \
//	h1 — s1    s4 — h2
//	       \  /
//	        s3 (lower path)
//
// Port numbers: s1: 1=h1, 2=s2, 3=s3. s2: 1=s1, 2=s4. s3: 1=s1,
// 2=s4. s4: 1=s2, 2=s3, 3=h2. Traffic to h2 takes the upper path.
type rhombus struct {
	H1, H2         *Host
	S1, S2, S3, S4 *Switch
}

func newRhombus(sim *Sim) *rhombus {
	r := &rhombus{
		H1: NewHost(sim, "h1", MustAddr("10.0.0.1")),
		H2: NewHost(sim, "h2", MustAddr("10.0.0.2")),
		S1: NewSwitch(sim, "s1"),
		S2: NewSwitch(sim, "s2"),
		S3: NewSwitch(sim, "s3"),
		S4: NewSwitch(sim, "s4"),
	}
	Connect(sim, r.H1, 1, r.S1, 1, 1e9, 0.001, 0)
	Connect(sim, r.S1, 2, r.S2, 1, 1e9, 0.001, 0)
	Connect(sim, r.S1, 3, r.S3, 1, 1e9, 0.001, 0)
	Connect(sim, r.S2, 2, r.S4, 1, 1e9, 0.001, 0)
	Connect(sim, r.S3, 2, r.S4, 2, 1e9, 0.001, 0)
	Connect(sim, r.S4, 3, r.H2, 1, 1e9, 0.001, 0)
	for _, s := range []*Switch{r.S1, r.S2, r.S3} {
		s.InstallRule(Rule{Priority: 1, Match: Match{Dst: r.H2.Addr}, Action: Output(2)})
	}
	r.S4.InstallRule(Rule{Priority: 1, Match: Match{Dst: r.H2.Addr}, Action: Output(3)})
	for _, s := range []*Switch{r.S4, r.S2, r.S3, r.S1} {
		s.InstallRule(Rule{Priority: 1, Match: Match{Dst: r.H1.Addr}, Action: Output(1)})
	}
	return r
}

func TestRhombusSinglePathInitially(t *testing.T) {
	sim := NewSim()
	r := newRhombus(sim)
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
	r := newRhombus(sim)
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
	r := newRhombus(sim)
	f := FiveTuple{Src: r.H2.Addr, Dst: r.H1.Addr, SrcPort: 2, DstPort: 1, Proto: ProtoUDP}
	r.H2.Send(f, 100)
	sim.Run()
	if r.H1.RxPackets != 1 {
		t.Errorf("h1 rx = %d", r.H1.RxPackets)
	}
}
