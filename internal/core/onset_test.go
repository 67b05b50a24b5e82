package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// mapOnsetFilter is the map-based OnsetFilter the table-based one
// replaced, kept verbatim as the reference the differential test
// compares against.
type mapOnsetFilter struct {
	ConfirmWindows int
	HoldWindows    int
	Onsets         uint64

	states map[float64]*mapOnsetState
}

type mapOnsetState struct {
	streak int
	fired  bool
	silent int
}

func newMapOnsetFilter(confirm, hold int) *mapOnsetFilter {
	return &mapOnsetFilter{ConfirmWindows: confirm, HoldWindows: hold, states: make(map[float64]*mapOnsetState)}
}

func (o *mapOnsetFilter) Step(detections []Detection) []Detection {
	present := make(map[float64]bool, len(detections))
	var onsets []Detection
	for _, det := range detections {
		present[det.Frequency] = true
		st := o.states[det.Frequency]
		if st == nil {
			st = &mapOnsetState{}
			o.states[det.Frequency] = st
		}
		st.streak++
		st.silent = 0
		if !st.fired && st.streak >= o.ConfirmWindows {
			st.fired = true
			o.Onsets++
			onsets = append(onsets, det)
		}
	}
	for f, st := range o.states {
		if present[f] {
			continue
		}
		st.streak = 0
		st.silent++
		if st.silent >= o.HoldWindows {
			delete(o.states, f)
		}
	}
	return onsets
}

// churnWindows draws a seeded stream of detection windows over a pool
// of tones that switch on and off independently: empty windows, tone
// churn, a frequency repeated within one window and shuffled order all
// occur.
func churnWindows(seed int64, n int) [][]Detection {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]float64, 12)
	for i := range pool {
		pool[i] = 500 + 40*float64(i)
	}
	on := make([]bool, len(pool))
	windows := make([][]Detection, n)
	for w := range windows {
		if rng.Intn(8) == 0 {
			continue // empty window
		}
		var dets []Detection
		for i, f := range pool {
			if rng.Intn(4) == 0 {
				on[i] = !on[i]
			}
			if !on[i] {
				continue
			}
			d := Detection{Time: float64(w) * DefaultWindow, Frequency: f, Amplitude: rng.Float64()}
			dets = append(dets, d)
			if rng.Intn(10) == 0 {
				dets = append(dets, d) // duplicate within the window
			}
		}
		rng.Shuffle(len(dets), func(i, j int) { dets[i], dets[j] = dets[j], dets[i] })
		windows[w] = dets
	}
	return windows
}

// TestOnsetFilterMatchesMapOracle drives the table-based filter and the
// map-based reference with the same random detection streams, at every
// ConfirmWindows 1–3 and HoldWindows 0–3, and requires identical onset
// sequences and Onsets counts.
func TestOnsetFilterMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		windows := churnWindows(seed, 400)
		for confirm := 1; confirm <= 3; confirm++ {
			for hold := 0; hold <= 3; hold++ {
				got := &OnsetFilter{ConfirmWindows: confirm, HoldWindows: hold}
				want := newMapOnsetFilter(confirm, hold)
				for w, dets := range windows {
					g, o := got.Step(dets), want.Step(dets)
					if !reflect.DeepEqual(g, o) {
						t.Fatalf("seed %d confirm %d hold %d window %d: onsets %v, want %v",
							seed, confirm, hold, w, g, o)
					}
				}
				if got.Onsets != want.Onsets || got.Onsets == 0 {
					t.Errorf("seed %d confirm %d hold %d: Onsets = %d, want %d (> 0)",
						seed, confirm, hold, got.Onsets, want.Onsets)
				}
			}
		}
	}
}

// TestOnsetFilterStepAllocs: once the state table and the onset
// scratch have grown to the stream's working set, Step allocates
// nothing, however the tones churn.
func TestOnsetFilterStepAllocs(t *testing.T) {
	windows := churnWindows(9, 256)
	o := NewOnsetFilter()
	for _, dets := range windows {
		o.Step(dets) // warm-up: grow the table and scratch
	}
	k := 0
	step := func() {
		o.Step(windows[k%len(windows)])
		k++
	}
	allocs := math.Inf(1)
	for trial := 0; trial < 3 && allocs != 0; trial++ {
		if got := testing.AllocsPerRun(len(windows), step); got < allocs {
			allocs = got
		}
	}
	if allocs != 0 {
		t.Errorf("OnsetFilter.Step allocates %g/op under churn, want 0", allocs)
	}
}
