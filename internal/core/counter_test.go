package core

import (
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/netsim"
)

func TestExactFlowCounterBasics(t *testing.T) {
	c := NewExactFlowCounter()
	c.Add(1, 3)
	c.Add(2, 1)
	c.Add(1, 2)
	if got := c.Estimate(1); got != 5 {
		t.Fatalf("Estimate(1) = %d", got)
	}
	if got := c.Estimate(99); got != 0 {
		t.Fatalf("Estimate(99) = %d", got)
	}
	if c.Keys() != 2 || c.Bytes() == 0 {
		t.Fatalf("keys=%d bytes=%d", c.Keys(), c.Bytes())
	}
	c.Reset()
	if c.Estimate(1) != 0 || c.Bytes() != 0 {
		t.Fatal("reset left state")
	}
}

func TestExactDistinctCounterBasics(t *testing.T) {
	c := NewExactDistinctCounter()
	for i := 0; i < 10; i++ {
		c.Observe(uint64(i % 5))
	}
	if c.Distinct() != 5 {
		t.Fatalf("distinct=%d", c.Distinct())
	}
	c.Reset()
	if c.Distinct() != 0 {
		t.Fatal("reset left state")
	}
}

// TestSketchCountersHonourKnobs: the sketch-backed implementations
// expose the configured error budgets and reject bad ones.
func TestSketchCountersHonourKnobs(t *testing.T) {
	if _, err := NewSketchFlowCounter(0, 0.01, 1); err == nil {
		t.Fatal("epsilon 0 accepted")
	}
	fc, err := NewSketchFlowCounter(0.01, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	fc.Add(7, 4)
	if got := fc.Estimate(7); got < 4 {
		t.Fatalf("sketch underestimated: %d < 4", got)
	}
	if fc.Bytes() == 0 || fc.Updates() != 4 {
		t.Fatalf("bytes=%d updates=%d", fc.Bytes(), fc.Updates())
	}

	if _, err := NewSketchDistinctCounter(2, 1); err == nil {
		t.Fatal("precision 2 accepted")
	}
	dc, err := NewSketchDistinctCounter(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		dc.Observe(uint64(i) * 0x9e3779b97f4a7c15)
	}
	if d := dc.Distinct(); d < 900 || d > 1100 {
		t.Fatalf("distinct = %d, want ~1000", d)
	}
}

// TestFlowCounterInterchangeable: HeavyHitter behaves identically on a
// workload small enough that the sketch is exact too.
func TestFlowCounterInterchangeable(t *testing.T) {
	exact := NewExactFlowCounter()
	sk, _ := NewSketchFlowCounter(0.001, 0.001, 42)
	for _, c := range []FlowCounter{exact, sk} {
		for i := uint64(0); i < 50; i++ {
			c.Add(i, i+1)
		}
		for i := uint64(0); i < 50; i++ {
			if got := c.Estimate(i); got != i+1 {
				t.Fatalf("%T: Estimate(%d) = %d, want %d", c, i, got, i+1)
			}
		}
	}
}

// TestIntervalCloseAllocs is the regression gate for interval
// accounting: closing a quiet interval reuses the counter storage and
// history backing, allocating nothing. (The old implementation built
// two fresh maps per interval per application.)
func TestIntervalCloseAllocs(t *testing.T) {
	tb := newTestbed(1)
	voice := tb.voiceAt("s1", acoustic.Position{X: 1.2})
	hh, err := NewHeavyHitter(tb.plan, "s1", voice, 16)
	if err != nil {
		t.Fatal(err)
	}

	voice2 := tb.voiceAt("s2", acoustic.Position{X: 1.4})
	sd, err := NewSpreadDetector(tb.plan, "s2", voice2, ModeSuperspreader,
		netsim.MustAddr("10.0.0.1"), 16, 4)
	if err != nil {
		t.Fatal(err)
	}

	voice3 := tb.voiceAt("s3", acoustic.Position{X: 1.6})
	ps, err := NewPortScan(tb.plan, "s3", voice3, 7000, 16)
	if err != nil {
		t.Fatal(err)
	}

	// Warm: fill histories past their bound and exercise the counters
	// so map storage exists to be reused.
	for i := 0; i < historyMax+16; i++ {
		hh.counter.Add(FreqKey(hh.freqs[i%len(hh.freqs)]), 1)
		hh.closeInterval(float64(i))
		sd.distinct.Observe(FreqKey(sd.freqs[i%len(sd.freqs)]))
		sd.closeInterval(float64(i))
		ps.distinct.Observe(FreqKey(ps.freqs[i%len(ps.freqs)]))
		ps.closeInterval(float64(i))
	}

	if allocs := testing.AllocsPerRun(200, func() { hh.closeInterval(100) }); allocs != 0 {
		t.Fatalf("HeavyHitter quiet closeInterval allocates %.1f/op", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { sd.closeInterval(100) }); allocs != 0 {
		t.Fatalf("SpreadDetector closeInterval allocates %.1f/op", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { ps.closeInterval(100) }); allocs != 0 {
		t.Fatalf("PortScan closeInterval allocates %.1f/op", allocs)
	}

	// Busy intervals reuse counter storage too: the only allocation is
	// the retained history sample's map.
	key := FreqKey(hh.freqs[0])
	allocs := testing.AllocsPerRun(200, func() {
		hh.counter.Add(key, 1)
		hh.closeInterval(101)
	})
	if allocs > 3 {
		t.Fatalf("HeavyHitter busy closeInterval allocates %.1f/op", allocs)
	}
}
