package sketch

import (
	"math"
	"testing"
)

func TestHLLPrecisionBounds(t *testing.T) {
	if _, err := NewHyperLogLog(3, 1); err == nil {
		t.Fatal("precision 3 accepted")
	}
	if _, err := NewHyperLogLog(19, 1); err == nil {
		t.Fatal("precision 19 accepted")
	}
	h, err := NewHyperLogLog(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.regs) != 4096 || h.Bytes() != 4096 {
		t.Fatalf("m = %d bytes = %d, want 4096", len(h.regs), h.Bytes())
	}
}

// stdError is the estimator's relative standard error 1.04/√m.
func stdError(h *HyperLogLog) float64 { return 1.04 / math.Sqrt(float64(len(h.regs))) }

// TestHLLMillionDistinct is the headline accuracy bound: at 10^6
// distinct keys the relative error stays within a few standard errors
// of the 1.04/sqrt(m) bound.
func TestHLLMillionDistinct(t *testing.T) {
	h, err := NewHyperLogLog(14, 99)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1_000_000
	for i := 0; i < n; i++ {
		h.Add(uint64(i))
	}
	relErr := math.Abs(h.Estimate()-n) / n
	if bound := 3 * stdError(h); relErr > bound {
		t.Fatalf("relative error %.4f exceeds 3 sigma = %.4f", relErr, bound)
	}
}

// TestHLLAccuracyAcrossScales sweeps cardinalities across the linear
// counting / raw estimator crossover.
func TestHLLAccuracyAcrossScales(t *testing.T) {
	for _, n := range []int{100, 1000, 10000, 100000} {
		h, _ := NewHyperLogLog(12, 5)
		for i := 0; i < n; i++ {
			// Spread keys so consecutive integers do not correlate.
			h.Add(uint64(i) * 0x5851f42d4c957f2d)
		}
		relErr := math.Abs(h.Estimate()-float64(n)) / float64(n)
		if bound := 4 * stdError(h); relErr > bound {
			t.Fatalf("n=%d: relative error %.4f exceeds %.4f", n, relErr, bound)
		}
	}
}

func TestHLLDuplicatesDoNotInflate(t *testing.T) {
	h, _ := NewHyperLogLog(10, 3)
	for rep := 0; rep < 50; rep++ {
		for i := 0; i < 200; i++ {
			h.Add(uint64(i))
		}
	}
	if est := h.Estimate(); math.Abs(est-200) > 4*stdError(h)*200 {
		t.Fatalf("200 distinct keys added 50x estimates to %.1f", est)
	}
	if h.Updates() != 50*200 {
		t.Fatalf("updates = %d", h.Updates())
	}
}

// TestHLLMergeBitExact: shard sketches merge (register-wise max) into
// exactly the single sketch's registers, so the estimate is
// bit-for-bit identical.
func TestHLLMergeBitExact(t *testing.T) {
	single, _ := NewHyperLogLog(12, 17)
	shards := make([]*HyperLogLog, 3)
	for i := range shards {
		shards[i], _ = NewHyperLogLog(12, 17)
	}
	for i := 0; i < 60000; i++ {
		k := uint64(i) * 0x9e3779b97f4a7c15
		single.Add(k)
		shards[i%3].Add(k)
	}
	merged := shards[0]
	for _, s := range shards[1:] {
		if err := merged.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	for i := range single.regs {
		if merged.regs[i] != single.regs[i] {
			t.Fatalf("register %d: merged %d != single %d", i, merged.regs[i], single.regs[i])
		}
	}
	if me, se := merged.Estimate(), single.Estimate(); me != se {
		t.Fatalf("merged estimate %v != single %v", me, se)
	}
}

func TestHLLMergeRejectsMismatch(t *testing.T) {
	a, _ := NewHyperLogLog(10, 1)
	b, _ := NewHyperLogLog(11, 1)
	c, _ := NewHyperLogLog(10, 2)
	if err := a.Merge(b); err != ErrShapeMismatch {
		t.Fatalf("precision mismatch: err = %v", err)
	}
	if err := a.Merge(c); err != ErrShapeMismatch {
		t.Fatalf("seed mismatch: err = %v", err)
	}
}

func TestHLLResetReuses(t *testing.T) {
	h, _ := NewHyperLogLog(10, 1)
	for i := 0; i < 1000; i++ {
		h.Add(uint64(i))
	}
	h.Reset()
	if h.Estimate() != 0 || h.Updates() != 0 {
		t.Fatalf("reset left estimate %.1f", h.Estimate())
	}
	if allocs := testing.AllocsPerRun(100, h.Reset); allocs != 0 {
		t.Fatalf("Reset allocates %.0f/op", allocs)
	}
}

func TestHLLHotPathAllocs(t *testing.T) {
	h, _ := NewHyperLogLog(14, 1)
	k := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Add(k)
		k++
	})
	if allocs != 0 {
		t.Fatalf("Add allocates %.1f/op", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = h.Estimate() }); allocs != 0 {
		t.Fatalf("Estimate allocates %.1f/op", allocs)
	}
}
