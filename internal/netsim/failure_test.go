package netsim

import "testing"

func TestLinkDownDropsTraffic(t *testing.T) {
	sim := NewSim()
	h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
	h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
	pa, _ := Connect(sim, h1, 1, h2, 1, 1e6, 0.001, 10)
	// Five packets delivered, then the link dies, then five more
	// are attempted.
	StartCBR(sim, h1, tuple(1, 2), 100, 1500, 0, 0.05)
	sim.After(0.2, func() { pa.SetDown(true) })
	sim.After(0.3, func() {
		for i := 0; i < 5; i++ {
			h1.Send(tuple(1, 2), 1500)
		}
	})
	sim.Run()
	if h2.RxPackets != 5 {
		t.Errorf("delivered = %d, want only the pre-failure 5", h2.RxPackets)
	}
	if !pa.down {
		t.Error("port should report down")
	}
}

func TestLinkDownFlushesQueue(t *testing.T) {
	sim := NewSim()
	h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
	h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
	pa, _ := Connect(sim, h1, 1, h2, 1, 1e5, 0, 100) // slow: packets queue
	for i := 0; i < 20; i++ {
		h1.Send(tuple(1, 2), 1500)
	}
	sim.After(0.15, func() { pa.SetDown(true) }) // ~1 pkt delivered by then
	sim.Run()
	if h2.RxPackets >= 20 {
		t.Errorf("delivered = %d; queue should have been flushed", h2.RxPackets)
	}
	if pa.LostOnDown() == 0 {
		t.Error("flushed packets not counted")
	}
}

func TestLinkDownKillsInFlightFrame(t *testing.T) {
	sim := NewSim()
	h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
	h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
	pa, _ := Connect(sim, h1, 1, h2, 1, 1e9, 0.5, 0) // long wire
	h1.Send(tuple(1, 2), 100)
	sim.After(0.1, func() { pa.SetDown(true) }) // cut while propagating
	sim.Run()
	if h2.RxPackets != 0 {
		t.Errorf("in-flight frame survived the cut: rx=%d", h2.RxPackets)
	}
}

func TestLinkUpRestoresService(t *testing.T) {
	sim := NewSim()
	h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
	h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
	pa, _ := Connect(sim, h1, 1, h2, 1, 1e9, 0, 0)
	pa.SetDown(true)
	h1.Send(tuple(1, 2), 100)
	sim.After(1, func() { pa.SetDown(false) })
	sim.After(2, func() { h1.Send(tuple(1, 2), 100) })
	sim.Run()
	if h2.RxPackets != 1 {
		t.Errorf("rx = %d, want 1 after link restored", h2.RxPackets)
	}
}
