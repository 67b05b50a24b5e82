package netsim

import (
	"math"
	"testing"
)

// flowSetTopoFull builds the canonical h1 -> s1 -> h2 topology used by
// the flow-set and pool tests.
func flowSetTopoFull(t testing.TB, pool bool) (*Sim, *Host, *Host) {
	t.Helper()
	sim := NewSim()
	if pool {
		sim.EnablePacketPool()
	}
	h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
	h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
	sw := NewSwitch(sim, "s1")
	Connect(sim, h1, 1, sw, 1, 1e9, 1e-6, 0)
	Connect(sim, sw, 2, h2, 1, 1e9, 1e-6, 0)
	sw.InstallRule(Rule{Match: Match{Dst: h2.Addr}, Action: Output(2)})
	return sim, h1, h2
}

func flowSpecs(n int, pps float64) []FlowSpec {
	specs := make([]FlowSpec, n)
	for i := range specs {
		specs[i] = FlowSpec{
			Flow: FiveTuple{
				Src: MustAddr("10.0.0.1"), Dst: MustAddr("10.0.0.2"),
				SrcPort: uint16(1024 + i), DstPort: 80, Proto: ProtoUDP,
			},
			PPS:  pps,
			Size: 200,
		}
	}
	return specs
}

// TestFlowSetCBRCounts: each flow paces at its rate, so a 1-second run
// emits ~pps packets per flow (phase jitter trims at most one).
func TestFlowSetCBRCounts(t *testing.T) {
	sim, h1, h2 := flowSetTopoFull(t, true)
	if fs := StartFlowSet(sim, h1, FlowSetConfig{}); len(fs.heap) != 0 {
		t.Fatalf("empty flow set active = %d", len(fs.heap))
	}
	const n, pps = 50, 100.0
	fs := StartFlowSet(sim, h1, FlowSetConfig{
		Specs: flowSpecs(n, pps), Start: 0, Stop: 1, Seed: 7,
	})
	sim.RunUntil(2)
	want := uint64(n * pps)
	if fs.Sent < want-uint64(n) || fs.Sent > want {
		t.Fatalf("sent %d packets, want about %d", fs.Sent, want)
	}
	if h2.RxPackets != fs.Sent {
		t.Fatalf("received %d != sent %d", h2.RxPackets, fs.Sent)
	}
	if len(fs.heap) != 0 {
		t.Fatalf("%d flows still active after stop time", len(fs.heap))
	}
}

// TestFlowSetDeterministic: same seed, same packet count and receive
// byte count; different seed shifts the phase jitter.
func TestFlowSetDeterministic(t *testing.T) {
	run := func(seed int64) (uint64, uint64) {
		sim, h1, h2 := flowSetTopoFull(t, true)
		fs := StartFlowSet(sim, h1, FlowSetConfig{
			Specs: flowSpecs(20, 50), Start: 0, Stop: 2, Seed: seed,
		})
		sim.RunUntil(3)
		return fs.Sent, h2.RxBytes
	}
	aSent, aBytes := run(11)
	bSent, bBytes := run(11)
	if aSent != bSent || aBytes != bBytes {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", aSent, aBytes, bSent, bBytes)
	}
	if aSent == 0 {
		t.Fatal("no packets emitted")
	}
}

// TestFlowSetSingleEvent: the whole batch keeps exactly one scheduler
// event pending, however many flows it drives.
func TestFlowSetSingleEvent(t *testing.T) {
	sim, h1, _ := flowSetTopoFull(t, true)
	StartFlowSet(sim, h1, FlowSetConfig{Specs: flowSpecs(1000, 10), Start: 0, Stop: 5, Seed: 1})
	if got := len(sim.events); got != 1 {
		t.Fatalf("flow set pends %d events, want 1", got)
	}
	sim.RunUntil(0.5)
	// Mid-run: the one re-armed step event plus any in-flight
	// arrival and wire-free events; the step event itself never multiplies.
	if got := len(sim.events); got > 4 {
		t.Fatalf("flow set pends %d events mid-run", got)
	}
}

// TestStartFlowSetAllocs: StartFlowSet allocates the same few objects
// at 10^3 and 10^5 flows — nothing per flow. Each run builds a fresh
// sim and host (two of the counted objects) so the scheduled event
// lands on an empty heap. The minimum over a few trials is kept:
// AllocsPerRun counts process-wide mallocs, and a garbage collection
// that the large tables trigger can add a runtime allocation to one.
func TestStartFlowSetAllocs(t *testing.T) {
	var allocs []float64
	for _, n := range []int{1e3, 1e5} {
		specs := flowSpecs(n, 10)
		least := math.Inf(1)
		for trial := 0; trial < 3; trial++ {
			least = math.Min(least, testing.AllocsPerRun(5, func() {
				sim := NewSim()
				StartFlowSet(sim, NewHost(sim, "h", MustAddr("10.0.0.1")), FlowSetConfig{Specs: specs, Stop: 1, Seed: 1})
			}))
		}
		allocs = append(allocs, least)
	}
	if allocs[0] != allocs[1] || allocs[1] > 8 {
		t.Fatalf("StartFlowSet allocates %v at 10^3 / 10^5 flows, want one small constant", allocs)
	}
}

// TestPacketPoolRecycles: with the pool on, a long run recycles a
// bounded working set instead of allocating per packet.
func TestPacketPoolRecycles(t *testing.T) {
	sim, h1, h2 := flowSetTopoFull(t, true)
	fs := StartFlowSet(sim, h1, FlowSetConfig{Specs: flowSpecs(10, 1000), Start: 0, Stop: 2, Seed: 5})
	sim.RunUntil(3)
	if fs.Sent < 10000 {
		t.Fatalf("sent only %d", fs.Sent)
	}
	if h2.RxPackets != fs.Sent {
		t.Fatalf("rx %d != sent %d", h2.RxPackets, fs.Sent)
	}
	if sim.PacketsPooled == 0 {
		t.Fatal("pool never recycled a packet")
	}
	if sim.PacketsAllocated > 64 {
		t.Fatalf("allocated %d fresh packets for a bounded in-flight window", sim.PacketsAllocated)
	}
}

// TestPacketPoolDisabledByDefault preserves the historical behaviour:
// hand-built sims never see recycled pointers.
func TestPacketPoolDisabledByDefault(t *testing.T) {
	sim, h1, h2 := flowSetTopoFull(t, false)
	var seen map[*Packet]bool
	h2.OnReceive = func(pkt *Packet) {
		if seen == nil {
			seen = make(map[*Packet]bool)
		}
		if seen[pkt] {
			t.Fatal("pointer reused without pool")
		}
		seen[pkt] = true
	}
	StartFlowSet(sim, h1, FlowSetConfig{Specs: flowSpecs(4, 100), Start: 0, Stop: 1, Seed: 2})
	sim.RunUntil(2)
	if sim.PacketsPooled != 0 {
		t.Fatalf("pooled %d packets with pool disabled", sim.PacketsPooled)
	}
}

// TestQueueRingWraps exercises Pop/Push across the ring boundary.
func TestQueueRingWraps(t *testing.T) {
	var q Queue
	next := uint64(0)
	popped := uint64(0)
	for round := 0; round < 100; round++ {
		for i := 0; i < 7; i++ {
			q.Push(&Packet{ID: next})
			next++
		}
		for i := 0; i < 5; i++ {
			p := q.Pop()
			if p == nil || p.ID != popped {
				t.Fatalf("round %d: popped %v, want ID %d", round, p, popped)
			}
			popped++
		}
	}
	if q.Len() != 200 {
		t.Fatalf("len = %d, want 200", q.Len())
	}
	for q.Len() > 0 {
		if p := q.Pop(); p.ID != popped {
			t.Fatalf("drain popped %d, want %d", p.ID, popped)
		} else {
			popped++
		}
	}
	if popped != next {
		t.Fatalf("popped %d of %d", popped, next)
	}
}

// trafficDrive starts n pooled 1000 pps flows host -> switch -> host,
// warms the pool, heaps and queue rings, and returns a step advancing
// the clock by dt together with the receiving host.
func trafficDrive(tb testing.TB, n int, seed int64, dt float64) (func(), *Host) {
	sim, h1, h2 := flowSetTopoFull(tb, true)
	StartFlowSet(sim, h1, FlowSetConfig{Specs: flowSpecs(n, 1000), Start: 0, Stop: 1e9, Seed: seed})
	sim.RunUntil(1)
	target := 1.0
	return func() {
		target += dt
		sim.RunUntil(target)
	}, h2
}

// TestTrafficSteadyStateAllocs is the engine's headline gate: once the
// pool and heaps are warm, pushing a packet host -> switch -> host
// allocates nothing — at 64 flows in 1 ms steps and at
// BenchmarkTrafficDrive's 256 flows, one packet per step.
func TestTrafficSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		flows int
		seed  int64
		dt    float64
	}{{64, 9, 1e-3}, {256, 13, 1 / 256e3}} {
		step, _ := trafficDrive(t, c.flows, c.seed, c.dt)
		if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
			t.Fatalf("%d flows: steady-state traffic allocates %.2f/op", c.flows, allocs)
		}
	}
}

// TestSchedulerSteadyStateAllocs: scheduling and dispatching a typed
// event on a warm heap is allocation-free.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	sim := NewSim()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		sim.Schedule(float64(i), fn)
	}
	sim.Run()
	allocs := testing.AllocsPerRun(2000, func() {
		sim.Schedule(sim.Now()+1, fn)
		sim.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state scheduling allocates %.2f/op", allocs)
	}
}

// BenchmarkScheduler measures one schedule+dispatch round trip on a
// warm heap (TestSchedulerSteadyStateAllocs holds it to 0 allocs/op).
func BenchmarkScheduler(b *testing.B) {
	sim := NewSim()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		sim.Schedule(float64(i), fn)
	}
	sim.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Schedule(sim.Now()+1, fn)
		sim.Run()
	}
}

// BenchmarkTrafficDrive measures the full per-packet forwarding path
// (flow-set emit -> host send -> switch lookup -> deliver) with the
// packet pool on (TestTrafficSteadyStateAllocs holds it to 0
// allocs/op).
func BenchmarkTrafficDrive(b *testing.B) {
	step, h2 := trafficDrive(b, 256, 13, 1/256e3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	if h2.RxPackets == 0 {
		b.Fatal("no traffic flowed")
	}
}
