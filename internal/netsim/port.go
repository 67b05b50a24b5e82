package netsim

// Node is anything that can terminate a link: a host or a switch.
type Node interface {
	// Receive handles a packet arriving on the given local port.
	Receive(pkt *Packet, inPort int)
}

// Queue is a drop-tail FIFO of packets with a fixed capacity,
// counting drops. Its occupancy is what
// the paper's switches translate into queue tones (Section 6). The
// buffer is a ring: pushes and pops recycle the same backing array, so
// a steady-state queue allocates nothing (the old slice-slide
// implementation leaked capacity forward and reallocated under
// sustained load).
type Queue struct {
	// Capacity is the maximum number of queued packets; zero means
	// unbounded.
	Capacity int

	buf     []*Packet
	head, n int
	drops   uint64
}

// Len returns the current occupancy in packets.
func (q *Queue) Len() int { return q.n }

// Drops returns the number of packets rejected by a full queue.
func (q *Queue) Drops() uint64 { return q.drops }

// Push appends a packet, reporting whether it was accepted.
func (q *Queue) Push(p *Packet) bool {
	if q.Capacity > 0 && q.n >= q.Capacity {
		q.drops++
		return false
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = p
	q.n++
	return true
}

// grow doubles the ring, unwrapping it into the new array. It runs
// only when the ring is full.
func (q *Queue) grow() {
	buf := make([]*Packet, max(8, 2*len(q.buf)))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Pop removes and returns the head packet, or nil when empty.
func (q *Queue) Pop() *Packet {
	if q.n == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return p
}

// Port is one directed endpoint of a link: it transmits packets from
// its owner toward the peer port's owner, serialising at Rate and
// then propagating with Latency. Each Port has its own output queue,
// holding the packets that wait behind a busy wire.
type Port struct {
	// Owner is the node this port belongs to.
	Owner Node
	// Index is the port number on the owner (1-based, OpenFlow
	// style).
	Index int
	// RateBps is the line rate in bits per second.
	RateBps float64
	// Latency is the propagation delay in seconds.
	Latency float64
	// Out is the output queue feeding the transmitter.
	Out Queue

	sim  *Sim
	peer *Port
	down bool
	// busyUntil is when the wire finishes serialising its current
	// frame. txArmed marks a pending txDone event, which exists only
	// while packets wait in Out.
	busyUntil  float64
	txArmed    bool
	lostOnDown uint64
}

// Send transmits a packet, or enqueues it behind a busy wire; if the
// queue is full the packet is dropped (counted in Out.Drops).
// Transmission is store-and-forward: serialisation delay
// Size*8/RateBps, then Latency. Send takes ownership of the packet:
// dropped packets return to the simulator's pool.
func (p *Port) Send(pkt *Packet) {
	if p.peer == nil || p.down {
		p.sim.releasePacket(pkt) // unplugged or downed port: packet vanishes
		return
	}
	if !p.txArmed && p.busyUntil <= p.sim.now {
		p.transmit(pkt)
		return
	}
	if !p.Out.Push(pkt) {
		p.sim.releasePacket(pkt)
		return
	}
	if !p.txArmed {
		p.armTxDone()
	}
}

// transmit starts serialising pkt now and schedules its arrival at
// the far end: one event per link traversal.
func (p *Port) transmit(pkt *Packet) {
	tx := 0.0
	if p.RateBps > 0 {
		tx = float64(pkt.Size) * 8 / p.RateBps
	}
	p.busyUntil = p.sim.now + tx
	p.sim.schedule(p.busyUntil+p.Latency, event{port: p, pkt: pkt})
}

// armTxDone schedules the wire-free event at the end of the current
// frame.
func (p *Port) armTxDone() {
	p.txArmed = true
	p.sim.schedule(p.busyUntil, event{port: p})
}

// txDone fires when the wire finishes serialising: the head-of-queue
// packet starts, and the event re-arms while more packets wait.
func (p *Port) txDone() {
	p.txArmed = false
	if pkt := p.Out.Pop(); pkt != nil { // nil: a link-down flushed the queue
		p.transmit(pkt)
		if p.Out.Len() > 0 {
			p.armTxDone()
		}
	}
}

// deliver lands a frame at the far end.
func (p *Port) deliver(pkt *Packet) {
	if p.down {
		p.sim.releasePacket(pkt) // link died while the frame was in flight
		return
	}
	p.peer.Owner.Receive(pkt, p.peer.Index)
}

// Connect wires two nodes with a full-duplex link of the given rate
// and propagation delay, using the given port numbers on each side.
// It returns the two directed ports (a-side, b-side). queueCap bounds
// each direction's output queue (0 = unbounded).
func Connect(sim *Sim, a Node, aPort int, b Node, bPort int, rateBps, latency float64, queueCap int) (*Port, *Port) {
	pa := &Port{Owner: a, Index: aPort, RateBps: rateBps, Latency: latency, sim: sim}
	pb := &Port{Owner: b, Index: bPort, RateBps: rateBps, Latency: latency, sim: sim}
	pa.Out.Capacity = queueCap
	pb.Out.Capacity = queueCap
	pa.peer = pb
	pb.peer = pa
	if ap, ok := a.(porter); ok {
		ap.attachPort(pa)
	}
	if bp, ok := b.(porter); ok {
		bp.attachPort(pb)
	}
	return pa, pb
}

// porter is implemented by nodes that keep a port registry.
type porter interface {
	attachPort(*Port)
}
