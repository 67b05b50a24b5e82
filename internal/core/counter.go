package core

import (
	"math"

	"mdn/internal/sketch"
)

// The telemetry applications originally kept exact per-interval maps:
// one entry per active tone. That is fine for a lab switch and fatal
// for a fleet counting millions of flows, so the counting state is
// pluggable: exact maps stay the default (and the accuracy oracle in
// sweeps), while sketch-backed counters bound memory with explicit
// (epsilon, delta) and precision knobs. Both sides key on uint64 —
// tone frequencies go through FreqKey — so the hot paths never touch
// strings or interfaces beyond one method call.

// FlowCounter is the per-key frequency store behind HeavyHitter.
type FlowCounter interface {
	// Add records n occurrences of key.
	Add(key uint64, n uint64)
	// Estimate returns the (possibly approximate) count for key.
	// Sketch implementations overestimate only.
	Estimate(key uint64) uint64
	// Reset clears counts for the next interval, reusing storage.
	Reset()
	// Bytes is the resident size of the counting state.
	Bytes() int
	// Updates is the total Add weight since the last Reset.
	Updates() uint64
}

// DistinctCounter is the distinct-key store behind PortScan and
// SpreadDetector.
type DistinctCounter interface {
	// Observe records one occurrence of key.
	Observe(key uint64)
	// Distinct returns the (possibly approximate) number of distinct
	// keys observed since the last Reset.
	Distinct() int
	// Reset clears state for the next interval, reusing storage.
	Reset()
	// Bytes is the resident size of the counting state.
	Bytes() int
	// Updates is the number of Observe calls since the last Reset.
	Updates() uint64
}

// FreqKey maps a tone frequency onto the counter key space.
func FreqKey(freq float64) uint64 { return math.Float64bits(freq) }

// exactEntryBytes approximates the resident cost of one Go map entry
// (key, value, bucket overhead) for Bytes reporting.
const exactEntryBytes = 48

// ExactFlowCounter is the exact map-backed FlowCounter — the default
// and the accuracy oracle for sketch sweeps. Reset clears the map in
// place, so steady-state intervals allocate nothing.
type ExactFlowCounter struct {
	counts  map[uint64]uint64
	updates uint64
}

// NewExactFlowCounter returns an empty exact counter.
func NewExactFlowCounter() *ExactFlowCounter {
	return &ExactFlowCounter{counts: make(map[uint64]uint64)}
}

// Add implements FlowCounter.
func (e *ExactFlowCounter) Add(key uint64, n uint64) {
	e.counts[key] += n
	e.updates += n
}

// Estimate implements FlowCounter (exactly, here).
func (e *ExactFlowCounter) Estimate(key uint64) uint64 { return e.counts[key] }

// Reset implements FlowCounter, retaining the map's storage.
func (e *ExactFlowCounter) Reset() {
	clear(e.counts)
	e.updates = 0
}

// Bytes implements FlowCounter.
func (e *ExactFlowCounter) Bytes() int { return len(e.counts) * exactEntryBytes }

// Updates implements FlowCounter.
func (e *ExactFlowCounter) Updates() uint64 { return e.updates }

// Keys returns the number of tracked keys.
func (e *ExactFlowCounter) Keys() int { return len(e.counts) }

// Each visits every (key, count) pair in unspecified order — the
// oracle-side iteration sketch sweeps use to build ground truth.
func (e *ExactFlowCounter) Each(fn func(key, count uint64)) {
	for k, c := range e.counts {
		fn(k, c)
	}
}

// SketchFlowCounter is a count-min-backed FlowCounter with the
// sketch's one-sided (epsilon, delta) guarantee.
type SketchFlowCounter struct {
	cms *sketch.CountMin
}

// NewSketchFlowCounter builds a conservative-update count-min counter
// with relative error epsilon at confidence 1-delta.
func NewSketchFlowCounter(epsilon, delta float64, seed uint64) (*SketchFlowCounter, error) {
	cms, err := sketch.NewCountMin(epsilon, delta, seed)
	if err != nil {
		return nil, err
	}
	cms.Conservative = true
	return &SketchFlowCounter{cms: cms}, nil
}

// Add implements FlowCounter.
func (s *SketchFlowCounter) Add(key uint64, n uint64) { s.cms.Update(key, n) }

// Estimate implements FlowCounter (an overestimate by at most
// epsilon*N with probability 1-delta).
func (s *SketchFlowCounter) Estimate(key uint64) uint64 { return s.cms.Estimate(key) }

// Reset implements FlowCounter, zeroing the cells in place.
func (s *SketchFlowCounter) Reset() { s.cms.Reset() }

// Bytes implements FlowCounter.
func (s *SketchFlowCounter) Bytes() int { return s.cms.Bytes() }

// Updates implements FlowCounter.
func (s *SketchFlowCounter) Updates() uint64 { return s.cms.Weight() }

// ExactDistinctCounter is the exact set-backed DistinctCounter.
type ExactDistinctCounter struct {
	seen    map[uint64]struct{}
	updates uint64
}

// NewExactDistinctCounter returns an empty exact distinct counter.
func NewExactDistinctCounter() *ExactDistinctCounter {
	return &ExactDistinctCounter{seen: make(map[uint64]struct{})}
}

// Observe implements DistinctCounter.
func (e *ExactDistinctCounter) Observe(key uint64) {
	e.seen[key] = struct{}{}
	e.updates++
}

// Distinct implements DistinctCounter (exactly, here).
func (e *ExactDistinctCounter) Distinct() int { return len(e.seen) }

// Reset implements DistinctCounter, retaining the set's storage.
func (e *ExactDistinctCounter) Reset() {
	clear(e.seen)
	e.updates = 0
}

// Bytes implements DistinctCounter.
func (e *ExactDistinctCounter) Bytes() int { return len(e.seen) * exactEntryBytes }

// Updates implements DistinctCounter.
func (e *ExactDistinctCounter) Updates() uint64 { return e.updates }

// SketchDistinctCounter is a HyperLogLog-backed DistinctCounter with
// standard error 1.04/sqrt(2^precision).
type SketchDistinctCounter struct {
	hll *sketch.HyperLogLog
}

// NewSketchDistinctCounter builds an HLL distinct counter at the given
// precision (registers = 2^precision).
func NewSketchDistinctCounter(precision uint8, seed uint64) (*SketchDistinctCounter, error) {
	hll, err := sketch.NewHyperLogLog(precision, seed)
	if err != nil {
		return nil, err
	}
	return &SketchDistinctCounter{hll: hll}, nil
}

// Observe implements DistinctCounter.
func (s *SketchDistinctCounter) Observe(key uint64) { s.hll.Add(key) }

// Distinct implements DistinctCounter (within ~1.04/sqrt(m) relative
// error).
func (s *SketchDistinctCounter) Distinct() int {
	return int(s.hll.Estimate() + 0.5)
}

// Reset implements DistinctCounter, zeroing registers in place.
func (s *SketchDistinctCounter) Reset() { s.hll.Reset() }

// Bytes implements DistinctCounter.
func (s *SketchDistinctCounter) Bytes() int { return s.hll.Bytes() }

// Updates implements DistinctCounter.
func (s *SketchDistinctCounter) Updates() uint64 { return s.hll.Updates() }
