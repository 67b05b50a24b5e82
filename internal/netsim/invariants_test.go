package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property tests on simulator invariants: conservation (nothing
// delivered that was not sent; everything sent is delivered, dropped,
// or in flight when links are lossless and queues unbounded), and
// per-flow FIFO ordering.

// newChain builds h1 — s1 — … — sn — h2 over identical links, each
// switch forwarding traffic for h2 out of port 2 (port 1 faces h1).
func newChain(sim *Sim, n int, rateBps, latency float64, queueCap int) (h1, h2 *Host) {
	h1 = NewHost(sim, "h1", MustAddr("10.0.0.1"))
	h2 = NewHost(sim, "h2", MustAddr("10.0.0.2"))
	var prev Node = h1
	prevPort := 1
	for i := 0; i < n; i++ {
		sw := NewSwitch(sim, fmt.Sprintf("s%d", i+1))
		sw.InstallRule(Rule{Priority: 1, Match: Match{Dst: h2.Addr}, Action: Output(2)})
		Connect(sim, prev, prevPort, sw, 1, rateBps, latency, queueCap)
		prev, prevPort = sw, 2
	}
	Connect(sim, prev, prevPort, h2, 1, rateBps, latency, queueCap)
	return h1, h2
}

func TestConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := NewSim()
		h1, h2 := newChain(sim, 1+rng.Intn(3), 1e6, 0.001, 0)
		flow := FiveTuple{Src: h1.Addr, Dst: h2.Addr,
			SrcPort: uint16(rng.Intn(60000)), DstPort: 80, Proto: ProtoUDP}
		pps := 50 + rng.Float64()*200
		src := StartPoisson(sim, h1, flow, pps, 500, 0, 2, seed)
		sim.Run() // drain everything
		// Lossless chain with unbounded queues: all sent packets
		// arrive, none are invented.
		return h2.RxPackets == src.Sent && h1.TxPackets == src.Sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestConservationWithDropsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := NewSim()
		h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
		h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
		qcap := 1 + rng.Intn(20)
		pa, _ := Connect(sim, h1, 1, h2, 1, 1e5, 0.001, qcap)
		flow := FiveTuple{Src: h1.Addr, Dst: h2.Addr, SrcPort: 7, DstPort: 80, Proto: ProtoUDP}
		src := StartCBR(sim, h1, flow, 500, 1500, 0, 0.5)
		sim.Run()
		// sent == delivered + dropped (queue drops only on this hop).
		return src.Sent == h2.RxPackets+pa.Out.Drops()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPerFlowFIFOProperty(t *testing.T) {
	// Packets of one flow must arrive in send order over any line.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := NewSim()
		h1, h2 := newChain(sim, 1+rng.Intn(4), 1e6, 0.002, 50)
		var ids []uint64
		h2.OnReceive = func(p *Packet) { ids = append(ids, p.ID) }
		flow := FiveTuple{Src: h1.Addr, Dst: h2.Addr, SrcPort: 1, DstPort: 2, Proto: ProtoUDP}
		StartPoisson(sim, h1, flow, 300, 800, 0, 1, seed)
		sim.Run()
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				return false
			}
		}
		return len(ids) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestHashSplitFlowAffinity(t *testing.T) {
	// ECMP: each flow sticks to one path; across many flows both
	// paths are used.
	sim := NewSim()
	h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
	h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
	h3 := NewHost(sim, "h3", MustAddr("10.0.0.3"))
	s := NewSwitch(sim, "s")
	Connect(sim, h1, 1, s, 1, 1e9, 0, 0)
	Connect(sim, h2, 1, s, 2, 1e9, 0, 0)
	Connect(sim, h3, 1, s, 3, 1e9, 0, 0)
	s.InstallRule(Rule{Priority: 1, Match: Match{}, Action: HashSplit(2, 3)})

	perFlowPort := map[uint16]map[string]bool{}
	h2.OnReceive = func(p *Packet) { record(perFlowPort, p, "h2") }
	h3.OnReceive = func(p *Packet) { record(perFlowPort, p, "h3") }
	for srcPort := uint16(1000); srcPort < 1064; srcPort++ {
		for i := 0; i < 3; i++ {
			h1.Send(FiveTuple{Src: h1.Addr, Dst: MustAddr("10.0.0.9"),
				SrcPort: srcPort, DstPort: 80, Proto: ProtoTCP}, 100)
		}
	}
	sim.Run()
	usedH2, usedH3 := false, false
	for port, sinks := range perFlowPort {
		if len(sinks) != 1 {
			t.Errorf("flow %d used %d paths, want 1", port, len(sinks))
		}
		if sinks["h2"] {
			usedH2 = true
		}
		if sinks["h3"] {
			usedH3 = true
		}
	}
	if !usedH2 || !usedH3 {
		t.Errorf("ECMP left a path idle: h2=%v h3=%v", usedH2, usedH3)
	}
}

func record(m map[uint16]map[string]bool, p *Packet, sink string) {
	if m[p.Flow.SrcPort] == nil {
		m[p.Flow.SrcPort] = map[string]bool{}
	}
	m[p.Flow.SrcPort][sink] = true
}

func TestRoundRobinSplitReordersAcrossPathsButECMPDoesNot(t *testing.T) {
	// Demonstrates why ECMP exists: with asymmetric path latencies,
	// RR split reorders one flow's packets; hash split cannot.
	build := func(action Action) []uint64 {
		sim := NewSim()
		h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
		h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
		s1 := NewSwitch(sim, "s1")
		s2 := NewSwitch(sim, "s2") // fast path
		s3 := NewSwitch(sim, "s3") // slow path
		s4 := NewSwitch(sim, "s4")
		Connect(sim, h1, 1, s1, 1, 1e9, 0.0001, 0)
		Connect(sim, s1, 2, s2, 1, 1e9, 0.0001, 0)
		Connect(sim, s1, 3, s3, 1, 1e9, 0.050, 0) // 50 ms slower
		Connect(sim, s2, 2, s4, 1, 1e9, 0.0001, 0)
		Connect(sim, s3, 2, s4, 2, 1e9, 0.0001, 0)
		Connect(sim, s4, 3, h2, 1, 1e9, 0.0001, 0)
		s1.InstallRule(Rule{Priority: 1, Match: Match{}, Action: action})
		fwd := Rule{Priority: 1, Match: Match{}, Action: Output(2)}
		s2.InstallRule(fwd)
		s3.InstallRule(fwd)
		s4.InstallRule(Rule{Priority: 1, Match: Match{}, Action: Output(3)})
		var ids []uint64
		h2.OnReceive = func(p *Packet) { ids = append(ids, p.ID) }
		flow := FiveTuple{Src: h1.Addr, Dst: h2.Addr, SrcPort: 5, DstPort: 80, Proto: ProtoUDP}
		StartCBR(sim, h1, flow, 100, 500, 0, 0.2)
		sim.Run()
		return ids
	}
	inOrder := func(ids []uint64) bool {
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				return false
			}
		}
		return true
	}
	if rr := build(Split(2, 3)); inOrder(rr) {
		t.Error("round-robin over asymmetric paths should reorder (test topology too gentle?)")
	}
	if ecmp := build(HashSplit(2, 3)); !inOrder(ecmp) {
		t.Error("hash split must preserve per-flow order")
	}
}
