package telemetry

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero
// value is ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 that can move both ways. The zero value
// is ready to use; a nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets chosen at
// registration. Observe is lock-free and allocation-free: one linear
// scan over the (small) bound slice plus three atomic updates. A nil
// *Histogram is a no-op.
type Histogram struct {
	bounds []float64 // sorted inclusive upper bounds; +Inf implied
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// DefaultLatencyBuckets spans 10 µs to 10 s — wide enough for both
// the sub-millisecond decode path (Figure 2b's FFT times) and
// multi-second virtual-time retry spans of the flow programmer.
var DefaultLatencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// StreamLatencyBuckets is a 1–2–5 log-spaced ladder from 1 µs to 1 s
// for the streaming detection path, whose latencies concentrate below
// a millisecond: hop wall times are microseconds and sound-to-detection
// sim-time latencies are a few hops (hundreds of microseconds to tens
// of milliseconds). DefaultLatencyBuckets starts at 10 µs with 2.5×
// gaps, which folds a bimodal sub-millisecond load into one bucket and
// makes p50 and p99 indistinguishable; this ladder keeps them apart.
var StreamLatencyBuckets = []float64{
	1e-6, 2e-6, 5e-6,
	1e-5, 2e-5, 5e-5,
	1e-4, 2e-4, 5e-4,
	1e-3, 2e-3, 5e-3,
	1e-2, 2e-2, 5e-2,
	0.1, 0.2, 0.5, 1,
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0..1) from the bucket counts,
// attributing each bucket's mass to its upper bound — a conservative
// (over-)estimate, good enough for report lines.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}
