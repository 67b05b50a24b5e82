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
// the event heap is a binary heap of pointer-free keys into a reused
// slot table (no interface{} boxing, no write barriers while sifting,
// no per-event allocation once warm), and a link traversal costs one
// typed event — the frame's arrival, scheduled when serialisation
// starts — plus a wire-free event only while packets wait behind a
// busy wire. An opt-in packet free list (EnablePacketPool) recycles
// Packet structs through the Host.Send → Port → Switch forwarding
// path, so the steady-state per-packet cost is zero allocations.
package netsim

// event is one scheduled occurrence. It waits in a Sim slot while its
// key sits in the heap. Which fields are set is its kind: fn for the
// general callback; port and pkt for a frame landing at the far end of
// a link; port alone for the wire freeing up for the next queued
// frame; rule for a flow rule's timeout check. The typed kinds let
// neither forwarding nor rule expiry allocate a closure, and with no
// kind field an event stays four words.
type event struct {
	fn   func()
	port *Port // the transmitting side of a link
	pkt  *Packet
	rule *Rule
}

// evKey is an event's heap entry: its time, its sequence number and
// the slot holding the event. Keys carry no pointers, so a sift copies
// 24 bytes and needs no write barriers.
type evKey struct {
	at   float64
	seq  uint64
	slot uint32
}

// before orders events by time, then scheduling order.
func (k *evKey) before(o *evKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// eventHeap is a value-typed binary min-heap. Compared to
// container/heap it neither boxes events through interface{} nor
// allocates per push: the backing array is reused across the run, so
// steady-state scheduling costs zero allocations. Sifts move entries
// into a hole and write the sifted key once, instead of swapping.
type eventHeap []evKey

func (h *eventHeap) push(k evKey) {
	*h = append(*h, k)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = k
}

func (h *eventHeap) pop() evKey {
	s := *h
	top, n := s[0], len(s)-1
	last := s[n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].before(&s[c]) {
			c++
		}
		if !s[c].before(&last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	*h = s[:n]
	return top
}

// Sim is the discrete-event engine. The zero value is not usable; use
// NewSim.
type Sim struct {
	now    float64
	seq    uint64
	events eventHeap
	slots  []event  // indexed by evKey.slot
	free   []uint32 // slots not holding a pending event

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
// Events at equal times run in scheduling order.
func (s *Sim) Schedule(at float64, fn func()) {
	s.schedule(at, event{fn: fn})
}

// schedule parks e in a free slot and queues its key with the next
// sequence number.
func (s *Sim) schedule(at float64, e event) {
	if at < s.now {
		at = s.now
	}
	var slot uint32
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
	} else {
		slot = uint32(len(s.slots))
		s.slots = append(s.slots, event{})
	}
	s.slots[slot] = e
	s.seq++
	s.events.push(evKey{at: at, seq: s.seq, slot: slot})
}

// step advances the clock to the earliest pending event and runs it.
func (s *Sim) step() {
	k := s.events.pop()
	e := s.slots[k.slot]
	s.slots[k.slot] = event{} // release fn/port/pkt/rule references
	s.free = append(s.free, k.slot)
	s.now = k.at
	s.Events++
	switch {
	case e.fn != nil:
		e.fn()
	case e.pkt != nil:
		e.port.deliver(e.pkt)
	case e.port != nil:
		e.port.txDone()
	default:
		e.rule.sw.expire(e.rule)
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
// packet passed to Tap or OnReceive callbacks is only valid for the
// duration of the call — handlers must copy what they keep.
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
		s.step()
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
		s.step()
		n++
	}
	return n
}
