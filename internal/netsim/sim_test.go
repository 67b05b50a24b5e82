package netsim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSimOrdering(t *testing.T) {
	s := NewSim()
	var got []int
	s.Schedule(2, func() { got = append(got, 2) })
	s.Schedule(1, func() { got = append(got, 1) })
	s.Schedule(3, func() { got = append(got, 3) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if s.Now() != 3 {
		t.Errorf("now = %g", s.Now())
	}
}

func TestSimEqualTimesFIFO(t *testing.T) {
	s := NewSim()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events out of order: %v", got)
		}
	}
}

func TestSimPastSchedulingClamps(t *testing.T) {
	s := NewSim()
	s.RunUntil(5)
	fired := false
	s.Schedule(1, func() {
		fired = true
		if s.Now() != 5 {
			t.Errorf("past event ran at %g, want clamp to 5", s.Now())
		}
	})
	s.Run()
	if !fired {
		t.Error("past event never fired")
	}
}

func TestSimRunUntilAdvancesClock(t *testing.T) {
	s := NewSim()
	n := s.RunUntil(10)
	if n != 0 || s.Now() != 10 {
		t.Errorf("n=%d now=%g", n, s.Now())
	}
}

func TestSimAfter(t *testing.T) {
	s := NewSim()
	var at float64
	s.Schedule(2, func() {
		s.After(3, func() { at = s.Now() })
	})
	s.Run()
	if at != 5 {
		t.Errorf("After fired at %g, want 5", at)
	}
}

func TestSimEveryAndStop(t *testing.T) {
	s := NewSim()
	var times []float64
	var tick *Ticker
	tick = s.Every(1, 0.5, func(now float64) {
		times = append(times, now)
		if len(times) == 4 {
			tick.Stop()
		}
	})
	s.RunUntil(100)
	if len(times) != 4 {
		t.Fatalf("ticks = %v", times)
	}
	want := []float64{1, 1.5, 2, 2.5}
	for i := range want {
		if !almostEqual(times[i], want[i], 1e-9) {
			t.Errorf("tick %d at %g, want %g", i, times[i], want[i])
		}
	}
	if len(s.events) != 0 {
		t.Errorf("pending = %d after stop", len(s.events))
	}
}

func TestSimEveryPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSim().Every(0, 0, func(float64) {})
}

func TestSimEventOrderProperty(t *testing.T) {
	// Property: events fire in nondecreasing time order regardless of
	// scheduling order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim()
		var fired []float64
		n := 50
		times := make([]float64, n)
		for i := range times {
			times[i] = rng.Float64() * 100
		}
		for _, at := range times {
			at := at
			s.Schedule(at, func() { fired = append(fired, at) })
		}
		s.Run()
		if len(fired) != n {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
