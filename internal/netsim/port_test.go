package netsim

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestQueueDropTail(t *testing.T) {
	q := &Queue{Capacity: 2}
	p1, p2, p3 := &Packet{ID: 1}, &Packet{ID: 2}, &Packet{ID: 3}
	if !q.Push(p1) || !q.Push(p2) {
		t.Fatal("pushes within capacity must succeed")
	}
	if q.Push(p3) {
		t.Error("push beyond capacity must fail")
	}
	if q.Drops() != 1 || q.Len() != 2 {
		t.Errorf("drops=%d len=%d", q.Drops(), q.Len())
	}
	if got := q.Pop(); got != p1 {
		t.Error("FIFO order violated")
	}
	if got := q.Pop(); got != p2 {
		t.Error("FIFO order violated")
	}
	if q.Pop() != nil {
		t.Error("empty pop should be nil")
	}
}

func TestQueueUnbounded(t *testing.T) {
	q := &Queue{}
	for i := 0; i < 1000; i++ {
		if !q.Push(&Packet{}) {
			t.Fatal("unbounded queue rejected a push")
		}
	}
	if q.Len() != 1000 {
		t.Errorf("len = %d", q.Len())
	}
}

func TestLinkDeliveryTiming(t *testing.T) {
	sim := NewSim()
	h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
	h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
	// 1 Mbps, 10 ms latency: a 1500-byte packet serialises in 12 ms,
	// arriving at 22 ms.
	Connect(sim, h1, 1, h2, 1, 1e6, 0.010, 0)
	var arrival float64
	h2.OnReceive = func(*Packet) { arrival = sim.Now() }
	h1.Send(tuple(1, 2), 1500)
	sim.Run()
	if !almostEqual(arrival, 0.022, 1e-9) {
		t.Errorf("arrival = %g, want 0.022", arrival)
	}
	if h2.RxPackets != 1 || h2.RxBytes != 1500 {
		t.Errorf("rx = %d pkts %d bytes", h2.RxPackets, h2.RxBytes)
	}
}

func TestLinkSerialisesBackToBack(t *testing.T) {
	sim := NewSim()
	h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
	h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
	Connect(sim, h1, 1, h2, 1, 1e6, 0, 0)
	var arrivals []float64
	h2.OnReceive = func(*Packet) { arrivals = append(arrivals, sim.Now()) }
	// Two packets sent at t=0 must arrive 12 ms apart (serialisation).
	h1.Send(tuple(1, 2), 1500)
	h1.Send(tuple(1, 2), 1500)
	sim.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if !almostEqual(arrivals[1]-arrivals[0], 0.012, 1e-9) {
		t.Errorf("spacing = %g, want 0.012", arrivals[1]-arrivals[0])
	}
}

func TestLinkQueueOverflowDrops(t *testing.T) {
	sim := NewSim()
	h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
	h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
	pa, _ := Connect(sim, h1, 1, h2, 1, 1e6, 0, 5)
	for i := 0; i < 20; i++ {
		h1.Send(tuple(1, 2), 1500)
	}
	sim.Run()
	// One in flight immediately, 5 queued, rest dropped.
	if h2.RxPackets != 6 {
		t.Errorf("delivered = %d, want 6", h2.RxPackets)
	}
	if pa.Out.Drops() != 14 {
		t.Errorf("drops = %d, want 14", pa.Out.Drops())
	}
}

func TestUnconnectedHostSendIsNoop(t *testing.T) {
	sim := NewSim()
	h := NewHost(sim, "h", MustAddr("10.0.0.1"))
	h.Send(tuple(1, 2), 100) // must not panic
	sim.Run()
	if h.TxPackets != 0 {
		t.Errorf("tx = %d, want 0 for unconnected host", h.TxPackets)
	}
}

func TestHostDoubleConnectPanics(t *testing.T) {
	sim := NewSim()
	h := NewHost(sim, "h", MustAddr("10.0.0.1"))
	h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
	h3 := NewHost(sim, "h3", MustAddr("10.0.0.3"))
	Connect(sim, h, 1, h2, 1, 1e6, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Connect(sim, h, 2, h3, 1, 1e6, 0, 0)
}

func TestHostGoodputSampling(t *testing.T) {
	sim := NewSim()
	h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
	h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
	Connect(sim, h1, 1, h2, 1, 1e9, 0, 0)
	var series []uint64
	sim.Every(0, 0.1, func(float64) { series = append(series, h2.RxBytes) })
	StartCBR(sim, h1, tuple(1, 2), 100, 1000, 0, 1)
	sim.RunUntil(1)
	if len(series) < 10 {
		t.Fatalf("series too short: %d", len(series))
	}
	if last := series[len(series)-1]; last < 90000 {
		t.Errorf("final cumulative bytes = %d, want ~100000", last)
	}
	// Monotone nondecreasing.
	for i := 1; i < len(series); i++ {
		if series[i] < series[i-1] {
			t.Fatal("cumulative series decreased")
		}
	}
}

func TestHostLatencyTracking(t *testing.T) {
	sim := NewSim()
	h1 := NewHost(sim, "h1", MustAddr("10.0.0.1"))
	h2 := NewHost(sim, "h2", MustAddr("10.0.0.2"))
	Connect(sim, h1, 1, h2, 1, 1e6, 0.010, 0) // 12 ms tx + 10 ms prop
	var lat []float64
	h2.OnReceive = func(pkt *Packet) { lat = append(lat, sim.Now()-pkt.CreatedAt) }
	h1.Send(tuple(1, 2), 1500)
	h1.Send(tuple(1, 2), 1500) // queues behind the first: higher delay
	sim.Run()
	if len(lat) != 2 {
		t.Fatalf("latencies = %v", lat)
	}
	if !almostEqual(lat[0], 0.022, 1e-9) {
		t.Errorf("first latency = %g, want 0.022", lat[0])
	}
	if !almostEqual(lat[1], 0.034, 1e-9) {
		t.Errorf("queued latency = %g, want 0.034", lat[1])
	}
}
