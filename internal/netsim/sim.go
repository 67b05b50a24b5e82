// Package netsim is a deterministic discrete-event network simulator:
// hosts, links with rate and propagation delay, switches with
// drop-tail FIFO queues and prioritised match-action flow tables, and
// traffic generators. It stands in for the paper's physical Zodiac FX
// testbed and its Mininet virtual testbed.
//
// Time is virtual (float64 seconds). All randomness is seeded. Events
// with equal timestamps fire in scheduling order, so runs are exactly
// reproducible.
//
// The engine is built to drive millions of flows per simulated second:
// the event heap is a value-typed binary heap (no interface{} boxing,
// no per-event allocation once warm), the per-packet transmit and
// deliver steps are typed events rather than captured closures, and an
// opt-in packet free list (EnablePacketPool) recycles Packet structs
// through the Host.Send → Port → Switch forwarding path, so the
// steady-state per-packet cost is zero allocations.
package netsim

// Event kinds. evFunc is the general callback; evTxDone and evDeliver
// are the two per-packet steps of every link traversal, encoded as
// typed events so forwarding never allocates a closure.
const (
	evFunc uint8 = iota
	evTxDone
	evDeliver
)

// event is one scheduled occurrence.
type event struct {
	at   float64
	seq  uint64
	kind uint8
	fn   func()  // evFunc
	port *Port   // evTxDone: transmitter; evDeliver: transmitting side
	pkt  *Packet // evDeliver
}

// before orders events by time, then scheduling order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a value-typed binary min-heap. Compared to
// container/heap it neither boxes events through interface{} nor
// allocates per push: the backing array is reused across the run, so
// steady-state scheduling costs zero allocations.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(&s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release fn/port/pkt references
	s = s[:n]
	*h = s
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && s[right].before(&s[left]) {
			min = right
		}
		if !s[min].before(&s[i]) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Sim is the discrete-event engine. The zero value is not usable; use
// NewSim.
type Sim struct {
	now    float64
	seq    uint64
	events eventHeap

	// Events counts processed events of every kind — the engine's
	// throughput numerator (events per wall second, events per
	// simulated second).
	Events uint64

	pool        []*Packet
	poolEnabled bool
	// PacketsPooled counts allocations served from the free list;
	// PacketsAllocated counts the ones that hit the heap.
	PacketsPooled    uint64
	PacketsAllocated uint64
}

// NewSim returns an engine at time zero.
func NewSim() *Sim {
	return &Sim{}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Schedule runs fn at virtual time at. Times in the past run
// immediately at the current time (the engine never travels backward).
func (s *Sim) Schedule(at float64, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, kind: evFunc, fn: fn})
}

// scheduleTxDone arms the end of a frame's serialisation on port.
func (s *Sim) scheduleTxDone(at float64, p *Port) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, kind: evTxDone, port: p})
}

// scheduleDeliver arms a frame's arrival at the far end of p's link.
func (s *Sim) scheduleDeliver(at float64, p *Port, pkt *Packet) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, kind: evDeliver, port: p, pkt: pkt})
}

// dispatch runs one event.
func (s *Sim) dispatch(e *event) {
	s.Events++
	switch e.kind {
	case evFunc:
		e.fn()
	case evTxDone:
		e.port.txDone()
	case evDeliver:
		e.port.deliver(e.pkt)
	}
}

// After runs fn after d seconds of virtual time.
func (s *Sim) After(d float64, fn func()) {
	s.Schedule(s.now+d, fn)
}

// EnablePacketPool turns on packet recycling: Host.Send draws Packet
// structs from a free list and the forwarding plane returns them when
// a packet reaches its end (delivered to a host, dropped by a queue, a
// downed link, a drop rule, or the loop guard). With the pool on, a
// packet passed to Tap, PacketIn or OnReceive callbacks is only valid
// for the duration of the call — handlers must copy what they keep.
// Packets built by hand (&Packet{...}) are unaffected: Release is a
// no-op for them.
func (s *Sim) EnablePacketPool() { s.poolEnabled = true }

// newPacket returns a zeroed packet, recycled when the pool is on.
func (s *Sim) newPacket() *Packet {
	if s.poolEnabled {
		if n := len(s.pool); n > 0 {
			p := s.pool[n-1]
			s.pool[n-1] = nil
			s.pool = s.pool[:n-1]
			s.PacketsPooled++
			*p = Packet{pooled: true}
			return p
		}
		s.PacketsAllocated++
		return &Packet{pooled: true}
	}
	s.PacketsAllocated++
	return &Packet{}
}

// releasePacket returns a pool-born packet to the free list. Hand-built
// packets pass through untouched.
func (s *Sim) releasePacket(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	p.pooled = false // guard against double release
	s.pool = append(s.pool, p)
}

// Ticker identifies a repeating task started with Every; Stop cancels
// future firings.
type Ticker struct {
	stopped bool
}

// Stop cancels the ticker.
func (t *Ticker) Stop() { t.stopped = true }

// Every runs fn at start, start+interval, start+2*interval, ... until
// the returned Ticker is stopped. fn receives the firing time.
func (s *Sim) Every(start, interval float64, fn func(now float64)) *Ticker {
	if interval <= 0 {
		panic("netsim: Every requires a positive interval")
	}
	t := &Ticker{}
	var tick func()
	at := start
	tick = func() {
		if t.stopped {
			return
		}
		fn(s.now)
		at += interval
		s.Schedule(at, tick)
	}
	s.Schedule(start, tick)
	return t
}

// RunUntil processes events up to and including time t, then sets the
// clock to t. It returns the number of events processed.
func (s *Sim) RunUntil(t float64) int {
	n := 0
	for len(s.events) > 0 && s.events[0].at <= t {
		e := s.events.pop()
		s.now = e.at
		s.dispatch(&e)
		n++
	}
	if t > s.now {
		s.now = t
	}
	return n
}

// Run processes every pending event (including those scheduled while
// running), leaving the clock at the last event's time. Use RunUntil
// for experiments with repeating tickers, which never drain. It
// returns the number of events processed.
func (s *Sim) Run() int {
	n := 0
	for len(s.events) > 0 {
		e := s.events.pop()
		s.now = e.at
		s.dispatch(&e)
		n++
	}
	return n
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return len(s.events) }
