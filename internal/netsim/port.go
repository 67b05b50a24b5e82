package netsim

// Node is anything that can terminate a link: a host or a switch.
type Node interface {
	// NodeName returns the unique node name.
	NodeName() string
	// Receive handles a packet arriving on the given local port.
	Receive(pkt *Packet, inPort int)
}

// Queue is a drop-tail FIFO of packets with a fixed capacity,
// counting drops and tracking a high-water mark. Its occupancy is what
// the paper's switches translate into queue tones (Section 6). The
// buffer is a ring: pushes and pops recycle the same backing array, so
// a steady-state queue allocates nothing (the old slice-slide
// implementation leaked capacity forward and reallocated under
// sustained load).
type Queue struct {
	// Capacity is the maximum number of queued packets; zero means
	// unbounded.
	Capacity int

	buf       []*Packet
	head, n   int
	drops     uint64
	enqueued  uint64
	highWater int
}

// Len returns the current occupancy in packets.
func (q *Queue) Len() int { return q.n }

// Drops returns the number of packets rejected by a full queue.
func (q *Queue) Drops() uint64 { return q.drops }

// Enqueued returns the total number of packets accepted.
func (q *Queue) Enqueued() uint64 { return q.enqueued }

// HighWater returns the maximum occupancy ever observed.
func (q *Queue) HighWater() int { return q.highWater }

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
	q.enqueued++
	if q.n > q.highWater {
		q.highWater = q.n
	}
	return true
}

// grow doubles the ring, unwrapping it into the new array.
func (q *Queue) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]*Packet, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = buf
	q.head = 0
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
// then propagating with Latency. Each Port has its own output queue.
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
	busy bool
	down bool
	// inFlight is the packet currently being serialised (between
	// transmitNext and txDone).
	inFlight   *Packet
	lostOnDown uint64
}

// Send enqueues a packet for transmission; if the queue is full the
// packet is dropped (counted in Out.Drops). Transmission is
// store-and-forward: serialisation delay Size*8/RateBps, then Latency.
// Send takes ownership of the packet: dropped packets return to the
// simulator's pool.
func (p *Port) Send(pkt *Packet) {
	if p.peer == nil || p.down {
		p.sim.releasePacket(pkt) // unplugged or downed port: packet vanishes
		return
	}
	if !p.Out.Push(pkt) {
		p.sim.releasePacket(pkt)
		return
	}
	if !p.busy {
		p.transmitNext()
	}
}

// transmitNext starts serialising the head-of-queue packet. The two
// steps of the traversal — wire free at the end of serialisation,
// arrival after propagation — are typed events, so the per-packet path
// schedules no closures.
func (p *Port) transmitNext() {
	pkt := p.Out.Pop()
	if pkt == nil {
		p.busy = false
		return
	}
	p.busy = true
	tx := 0.0
	if p.RateBps > 0 {
		tx = float64(pkt.Size) * 8 / p.RateBps
	}
	p.inFlight = pkt
	p.sim.scheduleTxDone(p.sim.now+tx, p)
}

// txDone fires when the wire finishes serialising: the frame enters
// propagation and the next queued packet starts.
func (p *Port) txDone() {
	pkt := p.inFlight
	p.inFlight = nil
	p.sim.scheduleDeliver(p.sim.now+p.Latency, p, pkt)
	p.transmitNext()
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
