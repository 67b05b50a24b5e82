package netsim

import "testing"

func pipe(t *testing.T, rate float64) (*Sim, *Host, *Host) {
	t.Helper()
	sim := NewSim()
	h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
	h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
	Connect(sim, h1, 1, h2, 1, rate, 0, 0)
	return sim, h1, h2
}

func TestCBRRateAndWindow(t *testing.T) {
	sim, h1, h2 := pipe(t, 1e9)
	src := StartCBR(sim, h1, tuple(1, 2), 100, 1000, 1, 3)
	sim.RunUntil(10)
	if src.Sent != 200 {
		t.Errorf("sent = %d, want 200 (100 pps over 2 s)", src.Sent)
	}
	if h2.RxPackets != 200 {
		t.Errorf("rx = %d", h2.RxPackets)
	}
}

func TestCBRPanicsOnBadRate(t *testing.T) {
	sim, h1, _ := pipe(t, 1e9)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	StartCBR(sim, h1, tuple(1, 2), 0, 100, 0, 1)
}

func TestRampAccelerates(t *testing.T) {
	sim, h1, h2 := pipe(t, 1e9)
	var times []float64
	h2.OnReceive = func(*Packet) { times = append(times, sim.Now()) }
	StartRamp(sim, h1, tuple(1, 2), 10, 1000, 100, 0, 2)
	sim.RunUntil(3)
	if len(times) < 100 {
		t.Fatalf("too few packets: %d", len(times))
	}
	// Count arrivals per half: the second half must far outnumber
	// the first.
	var firstHalf, secondHalf int
	for _, at := range times {
		if at < 1 {
			firstHalf++
		} else {
			secondHalf++
		}
	}
	// A linear 10->1000 pps ramp delivers ~2.9x more in the second
	// half (integral of the rate).
	if float64(secondHalf) < float64(firstHalf)*2.5 {
		t.Errorf("ramp not accelerating: %d then %d", firstHalf, secondHalf)
	}
}

func TestRampPanicsOnBadArgs(t *testing.T) {
	sim, h1, _ := pipe(t, 1e9)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	StartRamp(sim, h1, tuple(1, 2), 10, 100, 100, 5, 5)
}

func TestPoissonMeanRateAndDeterminism(t *testing.T) {
	sim, h1, _ := pipe(t, 1e9)
	src := StartPoisson(sim, h1, tuple(1, 2), 500, 100, 0, 10, 42)
	sim.RunUntil(10)
	if src.Sent < 4000 || src.Sent > 6000 {
		t.Errorf("sent = %d, want ~5000", src.Sent)
	}
	// Determinism: re-run identically.
	sim2, h1b, _ := pipe(t, 1e9)
	src2 := StartPoisson(sim2, h1b, tuple(1, 2), 500, 100, 0, 10, 42)
	sim2.RunUntil(10)
	if src.Sent != src2.Sent {
		t.Errorf("same seed, different counts: %d vs %d", src.Sent, src2.Sent)
	}
}

func TestPortScanCoversRange(t *testing.T) {
	sim, h1, h2 := pipe(t, 1e9)
	seen := map[uint16]bool{}
	h2.OnReceive = func(p *Packet) { seen[p.Flow.DstPort] = true }
	StartPortScan(sim, h1, tuple(4000, 0), 100, 64, 0.01, 0)
	sim.RunUntil(2)
	if len(seen) != 64 {
		t.Fatalf("scanned ports = %d, want 64", len(seen))
	}
	for p := uint16(100); p < 164; p++ {
		if !seen[p] {
			t.Errorf("port %d not scanned", p)
		}
	}
}
