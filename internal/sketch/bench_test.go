package sketch

import (
	"math/rand"
	"testing"
)

// updateCases are each structure's hot-path steps over a pre-generated
// Zipf key stream; every call advances to the next key.
func updateCases() []struct {
	name string
	step func()
} {
	rng := rand.New(rand.NewSource(5))
	z := rand.NewZipf(rng, 1.2, 1, 1<<20)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = z.Uint64()
	}
	mask := len(keys) - 1

	cms, _ := NewCountMin(0.001, 0.01, 1)
	cons, _ := NewCountMin(0.001, 0.01, 1)
	cons.Conservative = true
	full, _ := NewCountMin(0.001, 0.01, 1)
	hll, _ := NewHyperLogLog(14, 1)
	tk, _ := NewTopK(1024)
	for _, k := range keys {
		full.Update(k, 1)
		tk.Update(k, 1)
	}
	// next returns a step feeding successive keys to f.
	next := func(f func(k uint64)) func() {
		i := 0
		return func() {
			f(keys[i&mask])
			i++
		}
	}
	return []struct {
		name string
		step func()
	}{
		{"cms", next(func(k uint64) { cms.Update(k, 1) })},
		{"cms-conservative", next(func(k uint64) { cons.Update(k, 1) })},
		{"cms-estimate", next(func(k uint64) { _ = full.Estimate(k) })},
		{"hll", next(hll.Add)},
		{"topk", next(func(k uint64) { tk.Update(k, 1) })},
	}
}

// BenchmarkSketchUpdate measures the per-key cost of each structure's
// hot path (see updateCases).
func BenchmarkSketchUpdate(b *testing.B) {
	for _, c := range updateCases() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.step()
			}
		})
	}
}

// TestSketchUpdateAllocs holds every BenchmarkSketchUpdate row to 0
// allocs per key.
func TestSketchUpdateAllocs(t *testing.T) {
	for _, c := range updateCases() {
		if allocs := testing.AllocsPerRun(1000, c.step); allocs != 0 {
			t.Errorf("%s: allocates %v/op, want 0", c.name, allocs)
		}
	}
}
