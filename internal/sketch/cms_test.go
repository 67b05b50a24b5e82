package sketch

import (
	"math"
	"math/rand"
	"testing"
)

// zipfStream returns a deterministic Zipf-distributed key stream:
// count packets over keys 0..keys-1 with skew s.
func zipfStream(t testing.TB, seed int64, keys, count int, s float64) []uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(keys-1))
	out := make([]uint64, count)
	for i := range out {
		out[i] = z.Uint64()
	}
	return out
}

func TestCountMinShapeFromKnobs(t *testing.T) {
	c, err := NewCountMin(0.001, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.width != 2719 { // ceil(e/0.001)
		t.Fatalf("width = %d, want 2719", c.width)
	}
	if c.depth != 5 { // ceil(ln 100)
		t.Fatalf("depth = %d, want 5", c.depth)
	}
	if eps, delta := math.E/float64(c.width), math.Exp(-float64(c.depth)); eps > 0.001 || delta > 0.01 {
		t.Fatalf("guarantees eps=%g delta=%g exceed requested knobs", eps, delta)
	}
	if c.Bytes() != 8*2719*5 {
		t.Fatalf("bytes = %d", c.Bytes())
	}
}

func TestCountMinRejectsBadKnobs(t *testing.T) {
	for _, tc := range [][2]float64{{0, 0.1}, {1, 0.1}, {0.1, 0}, {0.1, 1}, {-0.1, 0.5}} {
		if _, err := NewCountMin(tc[0], tc[1], 1); err == nil {
			t.Fatalf("NewCountMin(%g, %g) accepted", tc[0], tc[1])
		}
	}
	if _, err := NewCountMinShape(0, 3, 1); err == nil {
		t.Fatal("zero width accepted")
	}
}

// TestCountMinNeverUnderestimates is the core one-sided guarantee:
// over a skewed stream, every key's estimate is at least its true
// count, and the fraction of keys overshooting by more than eps*N
// stays within the delta budget.
func TestCountMinNeverUnderestimates(t *testing.T) {
	for _, conservative := range []bool{false, true} {
		const eps, delta = 0.005, 0.01
		c, err := NewCountMin(eps, delta, 42)
		if err != nil {
			t.Fatal(err)
		}
		c.Conservative = conservative
		exact := make(map[uint64]uint64)
		stream := zipfStream(t, 7, 50000, 200000, 1.2)
		for _, k := range stream {
			c.Update(k, 1)
			exact[k]++
		}
		n := float64(c.Weight())
		over := 0
		for k, truth := range exact {
			est := c.Estimate(k)
			if est < truth {
				t.Fatalf("conservative=%v: estimate(%d) = %d < true %d", conservative, k, est, truth)
			}
			if float64(est-truth) > eps*n {
				over++
			}
		}
		// Per-query failure probability is delta; allow generous slack
		// over the population so the test is not itself flaky.
		if frac := float64(over) / float64(len(exact)); frac > 5*delta {
			t.Fatalf("conservative=%v: %.3f%% of keys exceed the epsN bound (delta=%g)",
				conservative, 100*frac, delta)
		}
	}
}

// TestCountMinConservativeTightens checks that conservative update
// never loosens an estimate relative to plain update on the same
// stream.
func TestCountMinConservativeTightens(t *testing.T) {
	plain, _ := NewCountMinShape(512, 4, 9)
	cons, _ := NewCountMinShape(512, 4, 9)
	cons.Conservative = true
	stream := zipfStream(t, 11, 20000, 100000, 1.1)
	for _, k := range stream {
		plain.Update(k, 1)
		cons.Update(k, 1)
	}
	worse := 0
	for k := uint64(0); k < 20000; k++ {
		if cons.Estimate(k) > plain.Estimate(k) {
			worse++
		}
	}
	if worse > 0 {
		t.Fatalf("conservative update loosened %d estimates", worse)
	}
}

// TestCountMinMergeBitExact: per-shard sketches over a partitioned
// stream merge into exactly the single-pass sketch — cell for cell.
func TestCountMinMergeBitExact(t *testing.T) {
	single, _ := NewCountMinShape(1024, 4, 3)
	shards := make([]*CountMin, 4)
	for i := range shards {
		shards[i], _ = NewCountMinShape(1024, 4, 3)
	}
	stream := zipfStream(t, 13, 30000, 120000, 1.3)
	for i, k := range stream {
		single.Update(k, 1)
		shards[i%4].Update(k, 1)
	}
	merged := shards[0]
	for _, s := range shards[1:] {
		if err := merged.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Weight() != single.Weight() {
		t.Fatalf("merged weight %d != single %d", merged.Weight(), single.Weight())
	}
	for i := range single.cells {
		if merged.cells[i] != single.cells[i] {
			t.Fatalf("cell %d: merged %d != single %d", i, merged.cells[i], single.cells[i])
		}
	}
}

func TestCountMinMergeRejectsMismatch(t *testing.T) {
	a, _ := NewCountMinShape(512, 4, 1)
	b, _ := NewCountMinShape(512, 5, 1)
	cDiffSeed, _ := NewCountMinShape(512, 4, 2)
	if err := a.Merge(b); err != ErrShapeMismatch {
		t.Fatalf("depth mismatch: err = %v", err)
	}
	if err := a.Merge(cDiffSeed); err != ErrShapeMismatch {
		t.Fatalf("seed mismatch: err = %v", err)
	}
}

func TestCountMinResetReuses(t *testing.T) {
	c, _ := NewCountMinShape(256, 3, 5)
	c.Update(17, 4)
	c.Reset()
	if c.Estimate(17) != 0 || c.Weight() != 0 {
		t.Fatal("reset left state behind")
	}
	allocs := testing.AllocsPerRun(100, c.Reset)
	if allocs != 0 {
		t.Fatalf("Reset allocates %.0f/op", allocs)
	}
}

func TestCountMinHotPathAllocs(t *testing.T) {
	for _, conservative := range []bool{false, true} {
		c, _ := NewCountMinShape(2048, 5, 7)
		c.Conservative = conservative
		k := uint64(0)
		allocs := testing.AllocsPerRun(1000, func() {
			c.Update(k, 1)
			_ = c.Estimate(k)
			k++
		})
		if allocs != 0 {
			t.Fatalf("conservative=%v: hot path allocates %.1f/op", conservative, allocs)
		}
	}
}
