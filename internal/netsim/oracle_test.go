package netsim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Oracle tests: the per-packet engine against reference models
// computed independently here, compared bit for bit.

type rxRecord struct {
	id uint64
	at float64
}

// TestLinkFIFOOracle drives one port with seeded bursty arrivals into
// a bounded queue and checks it against a FIFO queue model: each
// accepted packet starts serialising at max(its arrival, the previous
// packet's finish) and lands Latency after it finishes; an arrival
// that finds the queue full (Capacity packets waiting behind the wire)
// is dropped. Packet IDs, arrival times and the drop count must match
// exactly.
func TestLinkFIFOOracle(t *testing.T) {
	const rate, latency, qcap = 1e6, 1e-3, 4
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := NewSim()
		h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
		h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
		pa, _ := Connect(sim, h1, 1, h2, 1, rate, latency, qcap)
		var got []rxRecord
		h2.OnReceive = func(p *Packet) { got = append(got, rxRecord{p.ID, sim.Now()}) }

		var want []rxRecord
		var starts []float64 // service start of each accepted packet
		var drops, id uint64
		at, finish := 0.0, 0.0
		for burst := 0; burst < 300; burst++ {
			at += rng.ExpFloat64() * 0.02
			for k := 1 + rng.Intn(5); k > 0; k-- {
				size := 64 + rng.Intn(1437)
				sim.Schedule(at, func() { h1.Send(tuple(1, 2), size) })
				id++
				waiting := 0
				for j := len(starts) - 1; j >= 0 && starts[j] > at; j-- {
					waiting++
				}
				if waiting >= qcap {
					drops++
					continue
				}
				start := math.Max(at, finish)
				finish = start + float64(size)*8/rate
				starts = append(starts, start)
				want = append(want, rxRecord{id, finish + latency})
			}
		}
		sim.Run()

		if drops == 0 {
			t.Fatalf("seed %d: arrivals never overflowed the queue", seed)
		}
		if pa.Out.Drops() != drops {
			t.Fatalf("seed %d: drops = %d, model %d", seed, pa.Out.Drops(), drops)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: delivered %d packets, model %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: delivery %d = %+v, model %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestFlowSetOrderOracle: a FlowSet emits exactly the pairs
// (phase_i + k·interval_i, i) below Stop, in sorted order — ties in
// time go to the lower flow index. Thirty of the flows share one rate.
func TestFlowSetOrderOracle(t *testing.T) {
	sim := NewSim()
	h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
	h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
	// A zero-rate, zero-latency wire delivers in emission order.
	Connect(sim, h1, 1, h2, 1, 0, 0, 0)
	specs := flowSpecs(50, 40)
	for i := 30; i < len(specs); i++ {
		specs[i].PPS = 7 + 13*float64(i-30)
		specs[i].Size = 0 // DefaultPacketSize
	}
	cfg := FlowSetConfig{Specs: specs, Start: 0.25, Stop: 1.5, Seed: 3}
	type emission struct {
		at   float64
		flow int
		size int
	}
	var got []emission
	h2.OnReceive = func(p *Packet) {
		got = append(got, emission{p.CreatedAt, int(p.Flow.SrcPort) - 1024, p.Size})
	}
	fs := StartFlowSet(sim, h1, cfg)

	var want []emission
	for i, f := range fs.flows {
		if f.phase < cfg.Start || f.phase >= cfg.Start+f.interval {
			t.Fatalf("flow %d phase %g outside its first interval", i, f.phase)
		}
		size := specs[i].Size
		if size == 0 {
			size = DefaultPacketSize
		}
		for k := 0; ; k++ {
			at := f.phase + float64(k)*f.interval
			if at >= cfg.Stop {
				break
			}
			want = append(want, emission{at, i, size})
		}
	}
	sort.Slice(want, func(a, b int) bool {
		if want[a].at != want[b].at {
			return want[a].at < want[b].at
		}
		return want[a].flow < want[b].flow
	})
	sim.Run()

	if fs.Sent != uint64(len(want)) || len(got) != len(want) {
		t.Fatalf("sent %d, delivered %d, oracle %d", fs.Sent, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("emission %d = %+v, oracle %+v", i, got[i], want[i])
		}
	}
}

// TestArrivalSeqAtTransmitStart pins the engine's tie rule. Events at
// bit-identical times run in (time, seq) order, and a frame's arrival
// takes its sequence number when its serialisation starts: at Send for
// a frame that finds the wire free, at the wire-free event for one
// that waited in the queue.
func TestArrivalSeqAtTransmitStart(t *testing.T) {
	const rate, latency = 1e6, 0.01
	sim := NewSim()
	h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
	h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
	Connect(sim, h1, 1, h2, 1, rate, latency, 0)
	var log []string
	h2.OnReceive = func(p *Packet) { log = append(log, map[int]string{1500: "A", 1000: "B"}[p.Size]) }
	mark := func(name string) func() { return func() { log = append(log, name) } }

	txA := float64(1500) * 8 / rate
	arriveA := txA + latency
	arriveB := (txA + float64(1000)*8/rate) + latency
	sim.Schedule(arriveA, mark("before A"))
	h1.Send(tuple(1, 2), 1500) // wire free: A's arrival is sequenced now
	sim.Schedule(arriveA, mark("after A"))
	h1.Send(tuple(1, 2), 1000)              // queued behind A
	sim.Schedule(arriveB, mark("before B")) // B's arrival is sequenced at txA
	sim.Run()

	want := []string{"before A", "A", "after A", "before B", "B"}
	if len(log) != len(want) {
		t.Fatalf("order = %q, want %q", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("order = %q, want %q", log, want)
		}
	}
}
