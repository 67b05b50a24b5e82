package dsp

import (
	"fmt"
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution function over observed
// samples, used to reproduce Figure 2b (the FFT processing-time CDF).
// The zero value is an empty CDF ready for Add.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add records one observation.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// Len returns the number of observations.
func (c *CDF) Len() int { return len(c.samples) }

func (c *CDF) ensureSorted() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation between order statistics. It returns NaN when empty.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.ensureSorted()
	if q <= 0 {
		return c.samples[0]
	}
	if q >= 1 {
		return c.samples[len(c.samples)-1]
	}
	pos := float64(q * float64(len(c.samples)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c.samples[lo]
	}
	frac := pos - float64(lo)
	return float64(c.samples[lo]*(1-frac)) + float64(c.samples[hi]*frac)
}

// String summarises the distribution.
func (c *CDF) String() string {
	if len(c.samples) == 0 {
		return "CDF(empty)"
	}
	return fmt.Sprintf("CDF(n=%d p50=%.4g p90=%.4g p99=%.4g max=%.4g)",
		c.Len(), c.Quantile(0.5), c.Quantile(0.9), c.Quantile(0.99), c.Quantile(1))
}

// Series returns the sorted (value, cumulative probability) pairs of
// the empirical distribution, suitable for plotting.
func (c *CDF) Series() (values, probs []float64) {
	c.ensureSorted()
	values = make([]float64, len(c.samples))
	probs = make([]float64, len(c.samples))
	copy(values, c.samples)
	for i := range probs {
		probs[i] = float64(i+1) / float64(len(c.samples))
	}
	return values, probs
}
