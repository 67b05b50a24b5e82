package netsim

import "mdn/internal/splitmix"

// FlowSpec describes one flow of a FlowSet.
type FlowSpec struct {
	Flow FiveTuple
	// PPS is the flow's packet rate.
	PPS float64
	// Size is the packet size in bytes.
	Size int
}

// FlowSetConfig describes a batch of constant-rate flows driven by one
// scheduler event.
type FlowSetConfig struct {
	// Specs lists the flows. Size <= 0 falls back to
	// DefaultPacketSize. The FlowSet reads each packet's five-tuple
	// and size from Specs in place for its whole lifetime, so callers
	// must not mutate the slice after StartFlowSet.
	Specs []FlowSpec
	// Start and Stop bound emission in virtual seconds.
	Start, Stop float64
	// Seed drives the per-flow phase jitter.
	Seed int64
}

// fsFlow is one flow's pacing state: 24 bytes and no pointers, so the
// flow table costs the garbage collector nothing to scan.
type fsFlow struct {
	phase    float64 // first emission time, for drift-free CBR pacing
	interval float64 // 1/PPS
	count    uint64  // packets emitted
}

// fsKey is one FlowSet heap entry: a flow's next emission time and its
// index into Specs.
type fsKey struct {
	next float64
	i    int
}

// before orders keys by (next, i), a total order, so the emission
// sequence does not depend on the heap's shape.
func (k fsKey) before(o fsKey) bool {
	return k.next < o.next || k.next == o.next && k.i < o.i
}

// FlowSet drives N concurrent CBR flows from a single scheduled event.
// Where one Source per flow arms a self-rescheduling closure — N
// pending events and N live closures for N flows — a FlowSet keeps a
// 4-ary min-heap of 16-byte (next emission, flow index) keys and keeps
// exactly one event in the simulator, re-armed with one pre-bound
// method value. At 10^6 flows that is the difference between the event
// heap holding a million closures and holding one.
type FlowSet struct {
	// Sent counts packets emitted so far.
	Sent uint64

	sim    *Sim
	h      *Host
	stop   float64
	specs  []FlowSpec
	flows  []fsFlow // indexed like specs
	heap   []fsKey
	stepFn func() // fs.step bound once; reused for every re-arm
}

// StartFlowSet launches the batch. All emission times are derived
// deterministically from cfg.Seed, so runs replay exactly. It
// allocates the same few objects whatever the flow count.
func StartFlowSet(sim *Sim, h *Host, cfg FlowSetConfig) *FlowSet {
	fs := &FlowSet{
		sim: sim, h: h, stop: cfg.Stop, specs: cfg.Specs,
		flows: make([]fsFlow, len(cfg.Specs)),
		heap:  make([]fsKey, 0, len(cfg.Specs)),
	}
	fs.stepFn = fs.step
	seed := uint64(cfg.Seed)
	for i := range cfg.Specs {
		pps := cfg.Specs[i].PPS
		if pps <= 0 {
			panic("netsim: FlowSet rates must be positive")
		}
		f := &fs.flows[i]
		f.interval = 1 / pps
		// Deterministic phase jitter spreads first emissions across
		// one interval so CBR flows do not fire in lockstep bursts.
		f.phase = cfg.Start + float64(splitmix.Unit(splitmix.Mix(seed+uint64(i+1)*splitmix.Gamma))*f.interval)
		if f.phase < cfg.Stop {
			fs.heap = append(fs.heap, fsKey{next: f.phase, i: i})
		}
	}
	for i := (len(fs.heap) - 2) / 4; i >= 0; i-- {
		fs.siftDown(i)
	}
	if len(fs.heap) > 0 {
		sim.Schedule(fs.heap[0].next, fs.stepFn)
	}
	return fs
}

// step emits every flow due at the current time and re-arms one event
// at the next due time. This is the entire per-packet scheduling path:
// a heap sift and a pooled Send, no allocations.
func (fs *FlowSet) step() {
	now := fs.sim.now
	for len(fs.heap) > 0 && fs.heap[0].next <= now {
		i := fs.heap[0].i
		sp := &fs.specs[i]
		size := sp.Size
		if size <= 0 {
			size = DefaultPacketSize
		}
		fs.h.Send(sp.Flow, size)
		fs.Sent++
		f := &fs.flows[i]
		f.count++
		// Counter-based timing avoids drift from accumulating the
		// interval in floating point.
		if next := f.phase + float64(float64(f.count)*f.interval); next < fs.stop {
			fs.heap[0].next = next
		} else {
			n := len(fs.heap) - 1
			fs.heap[0] = fs.heap[n]
			fs.heap = fs.heap[:n]
		}
		fs.siftDown(0)
	}
	if len(fs.heap) > 0 {
		fs.sim.Schedule(fs.heap[0].next, fs.stepFn)
	}
}

// siftDown restores the 4-ary heap below i, moving smaller children up
// into a hole and writing the sifted key once.
func (fs *FlowSet) siftDown(i int) {
	h := fs.heap
	n := len(h)
	if i >= n {
		return
	}
	k := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(k) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = k
}
