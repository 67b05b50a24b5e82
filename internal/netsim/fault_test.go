package netsim

import (
	"math"
	"testing"
)

// TestFaultInjectorDropFraction: over 10⁵ messages the dropped share
// of a DropProb p channel is binomial, within 5 standard deviations,
// for light and heavy loss, and so are the survivors' truncations.
func TestFaultInjectorDropFraction(t *testing.T) {
	const msgs = 100000
	for _, p := range []float64{0.05, 0.3} {
		inj := NewFaultInjector(Faults{DropProb: p, TruncProb: p, Seed: 11})
		wire := make([]byte, 32)
		for i := 0; i < msgs; i++ {
			inj.Mangle(wire)
		}
		within := func(what string, got uint64, n, q float64) {
			if sd := math.Sqrt(n * q * (1 - q)); math.Abs(float64(got)-n*q) > 5*sd {
				t.Errorf("p=%g: %s %d of %.0f, want %.0f ± %.0f", p, what, got, n, n*q, 5*sd)
			}
		}
		within("dropped", inj.Dropped, msgs, p)
		within("truncated", inj.Truncated, float64(msgs-inj.Dropped), p)
	}
}

// TestNewFaultInjectorAllocs: an injector is one allocation; its
// random stream lives inside it.
func TestNewFaultInjectorAllocs(t *testing.T) {
	var inj *FaultInjector
	allocs := testing.AllocsPerRun(100, func() {
		inj = NewFaultInjector(Faults{DropProb: 0.3, Seed: 1})
	})
	if allocs != 1 {
		t.Errorf("NewFaultInjector allocates %v times, want 1", allocs)
	}
	if inj == nil {
		t.Fatal("nil injector")
	}
}
