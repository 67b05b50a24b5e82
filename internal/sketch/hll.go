package sketch

import (
	"fmt"
	"math"
	"math/bits"

	"mdn/internal/splitmix"
)

// HyperLogLog estimates the number of distinct keys added. Each key's
// hash selects one of m = 2ᵖ registers with its top p bits and the
// register keeps the maximum "rank" (leading-zero count + 1) seen in
// the remaining bits; the harmonic mean of the registers estimates the
// cardinality with relative standard error 1.04/√m.
//
// The implementation uses 64-bit hashes throughout, so the classic
// large-range correction (a 32-bit hash-collision artefact) is
// unnecessary; the small-range regime falls back to linear counting
// over the empty registers, as in the original paper.
//
// Estimate recomputes from the registers in index order every call, so
// its value is a pure function of register state: shards merged with
// Merge (register-wise max) estimate bit-for-bit what a single sketch
// fed the union stream would.
type HyperLogLog struct {
	p       uint8
	seed    uint64
	regs    []uint8
	updates uint64
}

// MinPrecision and MaxPrecision bound NewHyperLogLog's p: 2⁴ = 16
// registers (±26% error) up to 2¹⁸ = 256 KiB of registers (±0.2%).
const (
	MinPrecision = 4
	MaxPrecision = 18
)

// NewHyperLogLog builds a sketch with 2ᵖ one-byte registers.
func NewHyperLogLog(p uint8, seed uint64) (*HyperLogLog, error) {
	if p < MinPrecision || p > MaxPrecision {
		return nil, fmt.Errorf("sketch: HLL precision %d outside [%d, %d]", p, MinPrecision, MaxPrecision)
	}
	return &HyperLogLog{p: p, seed: seed, regs: make([]uint8, 1<<p)}, nil
}

// Updates returns the number of Add calls.
func (h *HyperLogLog) Updates() uint64 { return h.updates }

// Bytes returns the register-array footprint in bytes.
func (h *HyperLogLog) Bytes() int { return len(h.regs) }

// Add observes one key. It allocates nothing.
func (h *HyperLogLog) Add(key uint64) {
	h.updates++
	x := splitmix.Mix(key ^ h.seed)
	idx := x >> (64 - h.p)
	rest := x<<h.p | 1<<(h.p-1) // low bit guard keeps rank <= 64-p+1
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > h.regs[idx] {
		h.regs[idx] = rank
	}
}

// alpha is the harmonic-mean bias constant α_m.
func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	}
	return 0.7213 / (1 + 1.079/float64(m))
}

// Estimate returns the estimated distinct-key count. It reads the
// registers in index order, so the result depends only on register
// state (merge-stable), and allocates nothing.
func (h *HyperLogLog) Estimate() float64 {
	m := float64(len(h.regs))
	sum := 0.0
	zeros := 0
	for _, r := range h.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	e := alpha(len(h.regs)) * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		// Small-range regime: linear counting over empty registers is
		// more accurate than the raw estimator.
		return m * math.Log(m/float64(zeros))
	}
	return e
}

// Merge takes the register-wise maximum of o into h. Both sketches
// must share precision and seed. The merged registers are exactly
// those of a single sketch fed both streams, so Estimate agrees
// bit-for-bit.
func (h *HyperLogLog) Merge(o *HyperLogLog) error {
	if h.p != o.p || h.seed != o.seed {
		return ErrShapeMismatch
	}
	for i, r := range o.regs {
		if r > h.regs[i] {
			h.regs[i] = r
		}
	}
	h.updates += o.updates
	return nil
}

// Reset clears every register in place.
func (h *HyperLogLog) Reset() {
	clear(h.regs)
	h.updates = 0
}
