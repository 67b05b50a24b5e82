package netsim

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
	// DefaultPacketSize.
	Specs []FlowSpec
	// Start and Stop bound emission in virtual seconds.
	Start, Stop float64
	// Seed drives the per-flow phase jitter.
	Seed int64
}

// fsFlow is one flow's scheduling state inside a FlowSet.
type fsFlow struct {
	next     float64 // next emission time (heap key)
	phase    float64 // first emission time, for drift-free CBR pacing
	interval float64 // 1/PPS
	count    uint64  // packets emitted
	rng      uint64  // splitmix64 state for the phase jitter
	flow     FiveTuple
	size     int
}

// FlowSet drives N concurrent CBR flows from a single scheduled event.
// Where one Source per flow arms a self-rescheduling closure — N
// pending events and N live closures for N flows — a FlowSet keeps a
// value-typed min-heap of per-flow next-emission times and keeps
// exactly one event in the simulator, re-armed with one pre-bound
// method value. At 10^6 flows that is the difference between the event
// heap holding a million closures and holding one.
type FlowSet struct {
	// Sent counts packets emitted so far.
	Sent uint64

	sim     *Sim
	h       *Host
	stop    float64
	stopped bool
	flows   []fsFlow
	stepFn  func() // fs.step bound once; reused for every re-arm
}

// StartFlowSet launches the batch. All emission times are derived
// deterministically from cfg.Seed, so runs replay exactly.
func StartFlowSet(sim *Sim, h *Host, cfg FlowSetConfig) *FlowSet {
	fs := &FlowSet{sim: sim, h: h, stop: cfg.Stop}
	fs.stepFn = fs.step
	fs.flows = make([]fsFlow, 0, len(cfg.Specs))
	seed := uint64(cfg.Seed)
	for i, sp := range cfg.Specs {
		if sp.PPS <= 0 {
			panic("netsim: FlowSet rates must be positive")
		}
		size := sp.Size
		if size <= 0 {
			size = DefaultPacketSize
		}
		f := fsFlow{
			interval: 1 / sp.PPS,
			rng:      seed + uint64(i)*0x9e3779b97f4a7c15,
			flow:     sp.Flow,
			size:     size,
		}
		// Deterministic phase jitter spreads first emissions across
		// one interval so CBR flows do not fire in lockstep bursts.
		f.phase = cfg.Start + f.uniform()*f.interval
		if f.phase >= cfg.Stop {
			continue
		}
		f.next = f.phase
		fs.flows = append(fs.flows, f)
		fs.siftUp(len(fs.flows) - 1)
	}
	if len(fs.flows) > 0 {
		sim.Schedule(fs.flows[0].next, fs.stepFn)
	}
	return fs
}

// Stop halts the batch before its natural end.
func (fs *FlowSet) Stop() { fs.stopped = true }

// step emits every flow due at the current time and re-arms one event
// at the next due time. This is the entire per-packet scheduling path:
// a heap sift and a pooled Send, no allocations.
func (fs *FlowSet) step() {
	if fs.stopped {
		return
	}
	now := fs.sim.now
	for len(fs.flows) > 0 && fs.flows[0].next <= now {
		f := &fs.flows[0]
		fs.h.Send(f.flow, f.size)
		fs.Sent++
		f.count++
		// Counter-based timing avoids drift from accumulating the
		// interval in floating point.
		next := f.phase + float64(f.count)*f.interval
		if next >= fs.stop {
			fs.removeRoot()
			continue
		}
		f.next = next
		fs.siftDown(0)
	}
	if len(fs.flows) > 0 {
		fs.sim.Schedule(fs.flows[0].next, fs.stepFn)
	}
}

// uniform draws the next value in [0,1) from the flow's splitmix64
// stream.
func (f *fsFlow) uniform() float64 {
	f.rng += 0x9e3779b97f4a7c15
	x := f.rng
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// Heap of fsFlow by next emission time.

func (fs *FlowSet) siftUp(i int) {
	s := fs.flows
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].next <= s[i].next {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (fs *FlowSet) siftDown(i int) {
	s := fs.flows
	n := len(s)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && s[right].next < s[left].next {
			min = right
		}
		if s[i].next <= s[min].next {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
}

func (fs *FlowSet) removeRoot() {
	s := fs.flows
	n := len(s) - 1
	s[0] = s[n]
	fs.flows = s[:n]
	fs.siftDown(0)
}
