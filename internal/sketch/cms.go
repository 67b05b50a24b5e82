package sketch

import (
	"errors"
	"fmt"
	"math"
)

// CountMin is a count-min sketch: a depth×width matrix of counters
// where each key increments one counter per row (chosen by that row's
// hash) and is estimated by the minimum over its row counters. Hash
// collisions only ever inflate counters, so:
//
//	Estimate(k) >= true count of k            (always)
//	Estimate(k) <= true count of k + ε·N      (with probability >= 1−δ)
//
// where N is the total weight added and (ε, δ) follow from the shape:
// width = ⌈e/ε⌉, depth = ⌈ln(1/δ)⌉.
//
// With Conservative set, Update raises only the counters that are at
// the current minimum (conservative update), which tightens estimates
// substantially on skewed streams at the cost of merge exactness:
// conservatively-updated shards merge to a valid upper bound, not to
// the single-sketch result. Leave it off when shard-merge bit-equality
// matters.
//
// CountMin is not safe for concurrent use; the fleet model is one
// sketch per shard, merged after the fact.
type CountMin struct {
	// Conservative enables conservative update (see type doc). Toggle
	// before the first Update.
	Conservative bool

	width, depth int
	seed         uint64
	cells        []uint64 // depth rows of width cells, row-major
	weight       uint64
}

// NewCountMin sizes a sketch from the error knobs: estimates are
// within ε·N of truth with probability at least 1−δ. Both must lie in
// (0, 1).
func NewCountMin(eps, delta float64, seed uint64) (*CountMin, error) {
	if !(eps > 0 && eps < 1) {
		return nil, fmt.Errorf("sketch: count-min epsilon %g outside (0, 1)", eps)
	}
	if !(delta > 0 && delta < 1) {
		return nil, fmt.Errorf("sketch: count-min delta %g outside (0, 1)", delta)
	}
	width := int(math.Ceil(math.E / eps))
	depth := int(math.Ceil(math.Log(1 / delta)))
	if depth < 1 {
		depth = 1
	}
	return NewCountMinShape(width, depth, seed)
}

// NewCountMinShape builds a sketch with an explicit shape, for callers
// that size by memory budget rather than error target. The resulting
// guarantees are ε = e/width, δ = exp(−depth).
func NewCountMinShape(width, depth int, seed uint64) (*CountMin, error) {
	if width < 1 || depth < 1 {
		return nil, fmt.Errorf("sketch: count-min shape %dx%d invalid", depth, width)
	}
	return &CountMin{
		width: width,
		depth: depth,
		seed:  seed,
		cells: make([]uint64, width*depth),
	}, nil
}

// Weight returns the total weight added (the N of the ε·N bound).
func (c *CountMin) Weight() uint64 { return c.weight }

// Bytes returns the counter-array footprint in bytes.
func (c *CountMin) Bytes() int { return 8 * len(c.cells) }

// Update adds n to key's count. It allocates nothing.
func (c *CountMin) Update(key uint64, n uint64) {
	if n == 0 {
		return
	}
	c.weight += n
	h1, h2 := hashPair(key, c.seed)
	w := uint64(c.width)
	if c.Conservative {
		// Conservative update: raise every counter to min+n, touching
		// only those below it. Two passes over depth rows, no state.
		est := uint64(math.MaxUint64)
		h := h1
		for row := 0; row < c.depth; row++ {
			if v := c.cells[row*c.width+int(h%w)]; v < est {
				est = v
			}
			h += h2
		}
		target := est + n
		h = h1
		for row := 0; row < c.depth; row++ {
			cell := &c.cells[row*c.width+int(h%w)]
			if *cell < target {
				*cell = target
			}
			h += h2
		}
		return
	}
	h := h1
	for row := 0; row < c.depth; row++ {
		c.cells[row*c.width+int(h%w)] += n
		h += h2
	}
}

// Estimate returns the sketch's count for key: the minimum over the
// key's row counters. It allocates nothing.
func (c *CountMin) Estimate(key uint64) uint64 {
	h1, h2 := hashPair(key, c.seed)
	w := uint64(c.width)
	est := uint64(math.MaxUint64)
	h := h1
	for row := 0; row < c.depth; row++ {
		if v := c.cells[row*c.width+int(h%w)]; v < est {
			est = v
		}
		h += h2
	}
	return est
}

// ErrShapeMismatch rejects merging sketches of different shapes or
// seeds — their hash lanes do not line up, so cell-wise combination
// would be meaningless.
var ErrShapeMismatch = errors.New("sketch: merge shape/seed mismatch")

// Merge adds o cell-wise into c. Both sketches must share shape and
// seed. For plain (non-conservative) sketches the merge is exact:
// merging per-shard sketches yields bit-for-bit the sketch one pass
// over the combined stream would build. Conservatively-updated shards
// merge to a valid upper bound instead.
func (c *CountMin) Merge(o *CountMin) error {
	if c.width != o.width || c.depth != o.depth || c.seed != o.seed {
		return ErrShapeMismatch
	}
	for i, v := range o.cells {
		c.cells[i] += v
	}
	c.weight += o.weight
	return nil
}

// Reset clears every counter in place, starting a new interval without
// releasing or reallocating the array.
func (c *CountMin) Reset() {
	clear(c.cells)
	c.weight = 0
}
