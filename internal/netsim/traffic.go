package netsim

import "math/rand"

// Source is a running traffic generator.
type Source struct {
	// Sent counts packets emitted so far.
	Sent uint64
}

// StartCBR emits size-byte packets of the given flow from host at a
// constant rate of pps packets/second over [start, stop).
func StartCBR(sim *Sim, h *Host, flow FiveTuple, pps float64, size int, start, stop float64) *Source {
	if pps <= 0 {
		panic("netsim: CBR rate must be positive")
	}
	src := &Source{}
	interval := 1 / pps
	var emit func()
	n := 0
	emit = func() {
		h.Send(flow, size)
		src.Sent++
		n++
		// Counter-based timing avoids drift from accumulating the
		// interval in floating point.
		next := start + float64(float64(n)*interval)
		if next < stop {
			sim.Schedule(next, emit)
		}
	}
	sim.Schedule(start, emit)
	return src
}

// StartRamp emits packets whose rate grows linearly from startPPS at
// time start to endPPS at time stop — the paper's "progressively
// increasing rate" source in the load-balancing experiment.
func StartRamp(sim *Sim, h *Host, flow FiveTuple, startPPS, endPPS float64, size int, start, stop float64) *Source {
	if startPPS <= 0 || stop <= start {
		panic("netsim: ramp requires positive initial rate and stop > start")
	}
	src := &Source{}
	var emit func()
	emit = func() {
		now := sim.Now()
		if now >= stop {
			return
		}
		h.Send(flow, size)
		src.Sent++
		frac := (now - start) / (stop - start)
		rate := startPPS + float64((endPPS-startPPS)*frac)
		if rate < 1e-9 {
			rate = 1e-9
		}
		sim.After(1/rate, emit)
	}
	sim.Schedule(start, emit)
	return src
}

// StartPoisson emits packets with exponential inter-arrival times at
// mean rate pps, deterministically from seed.
func StartPoisson(sim *Sim, h *Host, flow FiveTuple, pps float64, size int, start, stop float64, seed int64) *Source {
	if pps <= 0 {
		panic("netsim: Poisson rate must be positive")
	}
	src := &Source{}
	rng := rand.New(rand.NewSource(seed))
	var emit func()
	emit = func() {
		if sim.Now() >= stop {
			return
		}
		h.Send(flow, size)
		src.Sent++
		sim.After(rng.ExpFloat64()/pps, emit)
	}
	sim.Schedule(start+rng.ExpFloat64()/pps, emit)
	return src
}

// StartPortScan sends one small probe per destination port in
// [firstPort, firstPort+count), spaced interval seconds apart — the
// naive scan of Section 5.
func StartPortScan(sim *Sim, h *Host, base FiveTuple, firstPort uint16, count int, interval, start float64) *Source {
	src := &Source{}
	for i := 0; i < count; i++ {
		port := firstPort + uint16(i)
		at := start + float64(float64(i)*interval)
		sim.Schedule(at, func() {
			f := base
			f.DstPort = port
			h.Send(f, 64)
			src.Sent++
		})
	}
	return src
}

// PacedSource is a CBR source whose rate can be changed while it
// runs — the control surface for MDN congestion control, where the
// controller adjusts senders from queue tones instead of ECN marks.
type PacedSource struct {
	sim  *Sim
	h    *Host
	flow FiveTuple
	size int
	stop float64

	rate float64
}

// StartPaced launches a rate-adjustable constant-bit-rate source.
func StartPaced(sim *Sim, h *Host, flow FiveTuple, pps float64, size int, start, stop float64) *PacedSource {
	if pps <= 0 {
		panic("netsim: paced rate must be positive")
	}
	p := &PacedSource{sim: sim, h: h, flow: flow, size: size, stop: stop, rate: pps}
	sim.Schedule(start, p.emit)
	return p
}

func (p *PacedSource) emit() {
	if p.sim.Now() >= p.stop {
		return
	}
	p.h.Send(p.flow, p.size)
	next := p.sim.Now() + 1/p.rate
	if next < p.stop {
		p.sim.Schedule(next, p.emit)
	}
}

// SetRate changes the sending rate (packets/second), taking effect
// from the next packet.
func (p *PacedSource) SetRate(pps float64) {
	if pps < 0.1 {
		pps = 0.1 // never fully starve; mirrors a minimum window
	}
	p.rate = pps
}

// Rate returns the current rate in packets/second.
func (p *PacedSource) Rate() float64 { return p.rate }
