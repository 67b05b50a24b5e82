package netsim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// star builds h1 -- s -- h2 (+optional h3 on port 3).
func star(t *testing.T, threeHosts bool) (*Sim, *Host, *Switch, *Host, *Host) {
	t.Helper()
	sim := NewSim()
	h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
	h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
	s := NewSwitch(sim, "s1")
	Connect(sim, h1, 1, s, 1, 1e9, 0, 0)
	Connect(sim, h2, 1, s, 2, 1e9, 0, 0)
	var h3 *Host
	if threeHosts {
		h3 = NewHost(sim, "h3", MustAddr("10.0.0.3"))
		Connect(sim, h3, 1, s, 3, 1e9, 0, 0)
	}
	return sim, h1, s, h2, h3
}

func TestSwitchForwardsOnMatch(t *testing.T) {
	sim, h1, s, h2, _ := star(t, false)
	rule := s.InstallRule(Rule{Priority: 1, Match: Match{Dst: h2.Addr}, Action: Output(2)})
	h1.Send(tuple(5000, 80), 500)
	sim.Run()
	if h2.RxPackets != 1 {
		t.Fatalf("h2 rx = %d", h2.RxPackets)
	}
	if rule.Packets != 1 || rule.Bytes != 500 {
		t.Errorf("rule counters = %d pkts %d bytes", rule.Packets, rule.Bytes)
	}
	if s.RxPackets != 1 || s.TxPackets != 1 {
		t.Errorf("switch counters rx=%d tx=%d", s.RxPackets, s.TxPackets)
	}
}

func TestSwitchTableMissDrops(t *testing.T) {
	sim, h1, s, h2, _ := star(t, false)
	h1.Send(tuple(1, 2), 100)
	sim.Run()
	if h2.RxPackets != 0 {
		t.Error("miss should drop")
	}
	if s.TableMisses != 1 {
		t.Errorf("misses = %d", s.TableMisses)
	}
}

func TestSwitchPriorityOrdering(t *testing.T) {
	sim, h1, s, h2, _ := star(t, false)
	s.InstallRule(Rule{Priority: 1, Match: Match{}, Action: Drop()})
	s.InstallRule(Rule{Priority: 10, Match: Match{Dst: h2.Addr}, Action: Output(2)})
	h1.Send(tuple(1, 80), 100)
	sim.Run()
	if h2.RxPackets != 1 {
		t.Error("higher-priority output rule should win over low-priority drop")
	}
}

func TestSwitchEqualPriorityFIFO(t *testing.T) {
	sim, h1, s, h2, _ := star(t, false)
	first := s.InstallRule(Rule{Priority: 5, Match: Match{}, Action: Output(2)})
	second := s.InstallRule(Rule{Priority: 5, Match: Match{}, Action: Drop()})
	h1.Send(tuple(1, 80), 100)
	sim.Run()
	if first.Packets != 1 || second.Packets != 0 {
		t.Errorf("first=%d second=%d; earlier-installed equal-priority rule should win",
			first.Packets, second.Packets)
	}
	if h2.RxPackets != 1 {
		t.Error("packet should have been forwarded")
	}
}

func TestSwitchMatchFields(t *testing.T) {
	pkt := &Packet{Flow: tuple(1000, 80)}
	cases := []struct {
		name string
		m    Match
		want bool
	}{
		{"wildcard", Match{}, true},
		{"dst port hit", Match{DstPort: 80}, true},
		{"dst port miss", Match{DstPort: 81}, false},
		{"src hit", Match{Src: MustAddr("10.0.0.1")}, true},
		{"src miss", Match{Src: MustAddr("10.9.9.9")}, false},
		{"dst hit", Match{Dst: MustAddr("10.0.0.2")}, true},
		{"proto hit", Match{Proto: ProtoTCP}, true},
		{"proto miss", Match{Proto: ProtoUDP}, false},
		{"src port hit", Match{SrcPort: 1000}, true},
		{"src port miss", Match{SrcPort: 2}, false},
		{"in port hit", Match{InPort: 3}, true},
		{"combo", Match{DstPort: 80, Proto: ProtoTCP, InPort: 3}, true},
	}
	for _, tc := range cases {
		if got := tc.m.Matches(pkt, 3); got != tc.want {
			t.Errorf("%s: got %v", tc.name, got)
		}
	}
	if (Match{InPort: 2}).Matches(pkt, 3) {
		t.Error("in-port mismatch should fail")
	}
}

func TestSwitchSplitRoundRobin(t *testing.T) {
	sim, h1, s, h2, h3 := star(t, true)
	_ = h2
	_ = h3
	s.InstallRule(Rule{Priority: 1, Match: Match{}, Action: Split(2, 3)})
	for i := 0; i < 10; i++ {
		h1.Send(tuple(1, 80), 100)
	}
	sim.Run()
	if h2.RxPackets != 5 || h3.RxPackets != 5 {
		t.Errorf("split = %d/%d, want 5/5", h2.RxPackets, h3.RxPackets)
	}
}

func TestSwitchTapSeesEverything(t *testing.T) {
	sim, h1, s, h2, _ := star(t, false)
	var tapped []uint16
	s.Tap = func(pkt *Packet, _ int) { tapped = append(tapped, pkt.Flow.DstPort) }
	s.InstallRule(Rule{Priority: 1, Match: Match{Dst: h2.Addr}, Action: Output(2)})
	h1.Send(tuple(1, 80), 100)
	h1.Send(tuple(1, 9999), 100) // will miss the table; tap still sees it
	sim.Run()
	if len(tapped) != 2 || tapped[0] != 80 || tapped[1] != 9999 {
		t.Errorf("tapped = %v", tapped)
	}
}

func TestSwitchRemoveRules(t *testing.T) {
	sim, h1, s, h2, _ := star(t, false)
	s.InstallRule(Rule{Priority: 1, Match: Match{DstPort: 80}, Action: Output(2)})
	s.InstallRule(Rule{Priority: 1, Match: Match{DstPort: 81}, Action: Output(2)})
	if n := s.removeRules(func(r *Rule) bool { return r.Match.DstPort == 80 }); n != 1 {
		t.Fatalf("removed = %d", n)
	}
	h1.Send(tuple(1, 80), 100)
	h1.Send(tuple(1, 81), 100)
	sim.Run()
	if h2.RxPackets != 1 {
		t.Errorf("rx = %d, want only port-81 packet", h2.RxPackets)
	}
	if len(s.Rules()) != 1 {
		t.Errorf("rules = %d", len(s.Rules()))
	}
	// The vacated tail of the table's backing array must not keep the
	// removed rule reachable.
	if tail := s.table[len(s.table):cap(s.table)]; slices.ContainsFunc(tail, func(r *Rule) bool { return r != nil }) {
		t.Errorf("table's spare capacity still holds removed rules: %v", tail)
	}
}

func TestSwitchLoopGuard(t *testing.T) {
	// Two switches forwarding to each other forever: loop guard must
	// kill the packet.
	sim := NewSim()
	a := NewSwitch(sim, "a")
	b := NewSwitch(sim, "b")
	h := NewHost(sim, "h", MustAddr("10.0.0.1"))
	Connect(sim, h, 1, a, 1, 1e9, 0, 0)
	Connect(sim, a, 2, b, 1, 1e9, 0, 0)
	a.InstallRule(Rule{Priority: 1, Match: Match{}, Action: Output(2)})
	b.InstallRule(Rule{Priority: 1, Match: Match{}, Action: Output(1)})
	h.Send(tuple(1, 2), 100)
	sim.Run()
	if a.LoopDrops+b.LoopDrops != 1 {
		t.Errorf("loop drops = %d, want 1", a.LoopDrops+b.LoopDrops)
	}
}

func TestSwitchQueueLen(t *testing.T) {
	sim := NewSim()
	h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
	h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
	s := NewSwitch(sim, "s")
	Connect(sim, h1, 1, s, 1, 1e9, 0, 0)
	Connect(sim, s, 2, h2, 1, 1e5, 0, 100) // slow egress
	s.InstallRule(Rule{Priority: 1, Match: Match{}, Action: Output(2)})
	for i := 0; i < 50; i++ {
		h1.Send(tuple(1, 2), 1500)
	}
	sim.RunUntil(0.001)
	if got := s.QueueLen(2); got < 40 {
		t.Errorf("queue len = %d, want most of the burst queued", got)
	}
	if s.QueueLen(99) != 0 {
		t.Error("unknown port should report 0")
	}
	sim.RunUntil(10)
	if s.QueueLen(2) != 0 {
		t.Error("queue should drain")
	}
	if h2.RxPackets != 50 {
		t.Errorf("delivered = %d", h2.RxPackets)
	}
}

// TestSwitchDuplicatePortPanics: a second link on a connected port, or
// a port numbered below 1, is constructor misuse.
func TestSwitchDuplicatePortPanics(t *testing.T) {
	for _, port := range []int{1, 0, -1} {
		sim := NewSim()
		s := NewSwitch(sim, "s")
		Connect(sim, NewHost(sim, "h1", MustAddr("10.0.0.1")), 1, s, 1, 1e9, 0, 0)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("port %d: expected panic", port)
				}
			}()
			Connect(sim, NewHost(sim, "h2", MustAddr("10.0.0.2")), 1, s, port, 1e9, 0, 0)
		}()
	}
}

// TestSwitchPortTable: the dense port table answers for any port
// number, connected or not, and lists connected ports in order.
func TestSwitchPortTable(t *testing.T) {
	_, _, s, _, _ := star(t, true)
	for _, n := range []int{-1, 0, 4, 99} {
		if s.Port(n) != nil || s.QueueLen(n) != 0 {
			t.Errorf("unconnected port %d answered", n)
		}
	}
	if got := s.Ports(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("ports = %v, want [1 2 3]", got)
	}
}

// TestOutputToUnconnectedPortReleasesPacket: a rule naming a port with
// no link drops the packet back into the pool, so after warm-up the
// pool serves every packet and allocates none.
func TestOutputToUnconnectedPortReleasesPacket(t *testing.T) {
	sim := NewSim()
	sim.EnablePacketPool()
	h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
	s := NewSwitch(sim, "s1")
	Connect(sim, h1, 1, s, 1, 1e9, 1e-6, 0)
	s.InstallRule(Rule{Action: Output(99)})
	StartCBR(sim, h1, tuple(1, 2), 1000, 100, 0, 2)
	sim.RunUntil(0.5)
	warm, pooled := sim.PacketsAllocated, sim.PacketsPooled
	sim.RunUntil(2)
	if sim.PacketsAllocated != warm || sim.PacketsPooled == pooled {
		t.Fatalf("allocated %d -> %d, pooled %d -> %d: packets leak from the pool",
			warm, sim.PacketsAllocated, pooled, sim.PacketsPooled)
	}
}

func TestActionKindString(t *testing.T) {
	names := map[ActionKind]string{
		ActionDrop: "drop", ActionOutput: "output", ActionSplit: "split",
		ActionHashSplit: "hash-split", ActionKind(42): "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

// TestInstallRuleMatchesStableSortOracle drives random installs (few
// distinct priorities, so ties are common), timeouts and removals, and
// after every step compares the table with the oracle the binary-search
// insert replaced: every live rule in installation order, stably sorted
// by descending priority.
func TestInstallRuleMatchesStableSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sim := NewSim()
	s := NewSwitch(sim, "s1")
	var installed []*Rule
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 6:
			r := Rule{Priority: rng.Intn(5) - 2}
			switch rng.Intn(3) {
			case 0:
				r.HardTimeout = rng.Float64()
			case 1:
				r.IdleTimeout = rng.Float64()
			}
			installed = append(installed, s.InstallRule(r))
		case op < 9:
			sim.RunUntil(sim.Now() + rng.Float64()/4)
		default:
			prio := rng.Intn(5) - 2
			s.removeRules(func(r *Rule) bool { return r.Priority == prio })
		}
		// An evicted rule's record may be reused by a later install, so
		// the oracle forgets it at once: every pointer it holds is live.
		installed = slices.DeleteFunc(installed, func(r *Rule) bool { return r.evicted })
		want := slices.Clone(installed)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Priority > want[j].Priority })
		got := s.Rules()
		if len(got) != len(want) {
			t.Fatalf("step %d: table holds %d rules, oracle %d", step, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: entry %d is rule seq %d (priority %d), oracle seq %d (priority %d)",
					step, i, got[i].seq, got[i].Priority, want[i].seq, want[i].Priority)
			}
		}
	}
}

// TestInstallRuleAllocs: installing a rule into a populated table and
// evicting it on its hard timeout allocates nothing once an evicted
// record is there to reuse, port list included.
func TestInstallRuleAllocs(t *testing.T) {
	sim := NewSim()
	s := NewSwitch(sim, "s1")
	for p := 0; p < 32; p++ {
		s.InstallRule(Rule{Priority: p % 8})
	}
	act := Split(2, 3)
	prio := 0
	cycle := func() {
		prio = (prio + 3) % 8
		s.InstallRule(Rule{Priority: prio, Action: act, HardTimeout: 1})
		sim.RunUntil(sim.Now() + 2)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("install and evict allocate %v times, want 0", allocs)
	}
	if len(s.Rules()) != 32 {
		t.Errorf("table holds %d rules after the cycles, want 32", len(s.Rules()))
	}
}

// TestRecycledRuleStartsClean: a record reused after a hard eviction
// carries nothing of the rule it held before, the switch owns the port
// list it installs, and a rule removed while its eviction event is
// pending is not reused before that event fires.
func TestRecycledRuleStartsClean(t *testing.T) {
	sim, h1, s, h2, h3 := star(t, true)
	ports := []int{2, 3}
	old := s.InstallRule(Rule{Priority: 1, Action: Action{Kind: ActionSplit, Ports: ports}, HardTimeout: 1})
	ports[0] = 99
	if got := old.Action.Ports; !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("changing the caller's ports changed the rule's to %v", got)
	}
	for i := 0; i < 3; i++ {
		h1.Send(tuple(1, 80), 100)
	}
	sim.RunUntil(2)
	if !old.evicted || old.Packets != 3 || old.rrNext != 3 {
		t.Fatalf("first rule: evicted=%v packets=%d rrNext=%d, want true/3/3", old.evicted, old.Packets, old.rrNext)
	}

	fresh := s.InstallRule(Rule{Priority: 1, Action: Split(3, 2), IdleTimeout: 0.5})
	if fresh != old {
		t.Fatal("install after a hard eviction did not reuse the evicted record")
	}
	if fresh.evicted || fresh.Packets != 0 || fresh.Bytes != 0 || fresh.rrNext != 0 {
		t.Errorf("reused record: evicted=%v packets=%d bytes=%d rrNext=%d, want a fresh rule",
			fresh.evicted, fresh.Packets, fresh.Bytes, fresh.rrNext)
	}
	if fresh.installedAt != 2 || fresh.lastHitAt != 2 || fresh.HardTimeout != 0 || fresh.IdleTimeout != 0.5 {
		t.Errorf("reused record: installed %g, last hit %g, hard %g, idle %g; want 2, 2, 0, 0.5",
			fresh.installedAt, fresh.lastHitAt, fresh.HardTimeout, fresh.IdleTimeout)
	}
	if !slices.Equal(fresh.Action.Ports, []int{3, 2}) {
		t.Errorf("reused record's ports = %v, want [3 2]", fresh.Action.Ports)
	}
	rx2, rx3 := h2.RxPackets, h3.RxPackets
	h1.Send(tuple(1, 80), 100)
	sim.RunUntil(2.4)
	if h3.RxPackets != rx3+1 || h2.RxPackets != rx2 {
		t.Error("the reused rule's round-robin did not start at its first port")
	}
	if fresh.evicted {
		t.Error("the reused rule idled out on the evicted rule's clock")
	}
	sim.RunUntil(3)
	if !fresh.evicted || len(s.Rules()) != 0 {
		t.Fatal("the reused rule did not idle out 0.5 s after its last hit")
	}

	removed := s.InstallRule(Rule{Priority: 1, Action: Output(2), HardTimeout: 1})
	s.removeRules(func(r *Rule) bool { return r == removed })
	if next := s.InstallRule(Rule{Priority: 1, Action: Output(2)}); next == removed {
		t.Fatal("a rule removed with its eviction pending was reused before the eviction fired")
	}
	sim.RunUntil(5)
	if !removed.evicted || len(sim.events) != 0 {
		t.Errorf("removed rule evicted=%v with %d events pending, want true/0", removed.evicted, len(sim.events))
	}
}
