package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between order statistics. xs is sorted in place; an
// empty slice yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) and statistics.median
// compute them, so spreads printed here match ones computed in Python.
// xs is sorted in place. One value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		med = xs[n/2]
	} else {
		med = (xs[n/2-1] + xs[n/2]) / 2
	}
	if n == 1 {
		return xs[0], med, xs[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// logHist is a deterministic log-bucketed histogram for simulated
// durations too numerous to keep (one per packet): buckets are 1 % wide
// from 1 µs, so quantiles carry at most 1 % error.
type logHist struct {
	counts []uint64
	n      uint64
}

const (
	logHistMin  = 1e-6
	logHistStep = 0.01
)

func (h *logHist) add(v float64) {
	b := 0
	if v > logHistMin {
		b = int(math.Log(v/logHistMin) / math.Log1p(logHistStep))
	}
	if b >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, b+1-len(h.counts))...)
	}
	h.counts[b]++
	h.n++
}

// quantile returns the lower edge of the bucket holding the q-quantile.
func (h *logHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= target {
			return logHistMin * math.Pow(1+logHistStep, float64(b))
		}
	}
	return 0
}
