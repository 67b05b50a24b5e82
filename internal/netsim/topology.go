package netsim

// LinkSpec bundles the parameters of a link.
type LinkSpec struct {
	// RateBps is the line rate in bits/second.
	RateBps float64
	// Latency is the propagation delay in seconds.
	Latency float64
	// QueueCap bounds each direction's output queue in packets
	// (0 = unbounded).
	QueueCap int
}

// Rhombus is the paper's load-balancing topology (Section 6): four
// switches in a diamond with the two hosts on opposite vertices.
//
//	        s2 (upper path)
//	       /  \
//	h1 — s1    s4 — h2
//	       \  /
//	        s3 (lower path)
//
// Port numbers: s1: 1=h1, 2=s2, 3=s3. s2: 1=s1, 2=s4. s3: 1=s1,
// 2=s4. s4: 1=s2, 2=s3, 3=h2.
type Rhombus struct {
	Sim            *Sim
	H1, H2         *Host
	S1, S2, S3, S4 *Switch
}

// NewRhombusLinks builds the diamond with distinct host-access and
// switch-core link specs. Congestion experiments want fast host links
// so queues build inside the network (at s1's core-facing ports)
// rather than at the source host's own egress.
func NewRhombusLinks(sim *Sim, hostLink, coreLink LinkSpec) *Rhombus {
	r := &Rhombus{
		Sim: sim,
		H1:  NewHost(sim, "h1", MustAddr("10.0.0.1")),
		H2:  NewHost(sim, "h2", MustAddr("10.0.0.2")),
		S1:  NewSwitch(sim, "s1"),
		S2:  NewSwitch(sim, "s2"),
		S3:  NewSwitch(sim, "s3"),
		S4:  NewSwitch(sim, "s4"),
	}
	Connect(sim, r.H1, 1, r.S1, 1, hostLink.RateBps, hostLink.Latency, hostLink.QueueCap)
	Connect(sim, r.S1, 2, r.S2, 1, coreLink.RateBps, coreLink.Latency, coreLink.QueueCap)
	Connect(sim, r.S1, 3, r.S3, 1, coreLink.RateBps, coreLink.Latency, coreLink.QueueCap)
	Connect(sim, r.S2, 2, r.S4, 1, coreLink.RateBps, coreLink.Latency, coreLink.QueueCap)
	Connect(sim, r.S3, 2, r.S4, 2, coreLink.RateBps, coreLink.Latency, coreLink.QueueCap)
	Connect(sim, r.S4, 3, r.H2, 1, hostLink.RateBps, hostLink.Latency, hostLink.QueueCap)

	// Forward direction, single (upper) path initially.
	r.S1.InstallRule(Rule{Priority: 1, Match: Match{Dst: r.H2.Addr}, Action: Output(2)})
	r.S2.InstallRule(Rule{Priority: 1, Match: Match{Dst: r.H2.Addr}, Action: Output(2)})
	r.S3.InstallRule(Rule{Priority: 1, Match: Match{Dst: r.H2.Addr}, Action: Output(2)})
	r.S4.InstallRule(Rule{Priority: 1, Match: Match{Dst: r.H2.Addr}, Action: Output(3)})
	// Reverse direction.
	r.S4.InstallRule(Rule{Priority: 1, Match: Match{Dst: r.H1.Addr}, Action: Output(1)})
	r.S2.InstallRule(Rule{Priority: 1, Match: Match{Dst: r.H1.Addr}, Action: Output(1)})
	r.S3.InstallRule(Rule{Priority: 1, Match: Match{Dst: r.H1.Addr}, Action: Output(1)})
	r.S1.InstallRule(Rule{Priority: 1, Match: Match{Dst: r.H1.Addr}, Action: Output(1)})
	return r
}
