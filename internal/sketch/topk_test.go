package sketch

import (
	"sort"
	"testing"
)

// tracked indexes the tracker's items by key.
func tracked(tk *TopK) map[uint64]Item {
	m := make(map[uint64]Item, len(tk.entries))
	for _, it := range tk.Items() {
		m[it.Key] = it
	}
	return m
}

func TestTopKTracksExactWhenUnderCapacity(t *testing.T) {
	tk, err := NewTopK(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		tk.Update(uint64(i), uint64(i+1))
	}
	items := tracked(tk)
	for i := 0; i < 8; i++ {
		it, ok := items[uint64(i)]
		if !ok || it.Count != uint64(i+1) || it.Err != 0 {
			t.Fatalf("key %d: %+v, %v", i, it, ok)
		}
	}
	if len(tk.entries) != 8 {
		t.Fatalf("under capacity Len = %d, want 8", len(tk.entries))
	}
}

// TestTopKSpaceSavingBounds checks the two-sided guarantee on a skewed
// stream: tracked counts are upper bounds, Count-Err lower bounds, and
// every true heavy hitter above the minimum tracked count is present.
func TestTopKSpaceSavingBounds(t *testing.T) {
	const k = 64
	tk, _ := NewTopK(k)
	exact := make(map[uint64]uint64)
	stream := zipfStream(t, 23, 5000, 100000, 1.4)
	for _, key := range stream {
		tk.Update(key, 1)
		exact[key]++
	}
	for _, it := range tk.Items() {
		truth := exact[it.Key]
		if it.Count < truth {
			t.Fatalf("key %d: count %d < true %d", it.Key, it.Count, truth)
		}
		if it.Count-it.Err > truth {
			t.Fatalf("key %d: guaranteed %d > true %d", it.Key, it.Count-it.Err, truth)
		}
	}
	// Any key whose true count beats the tracked minimum (the last of
	// the count-ordered items) must be in.
	items := tracked(tk)
	min := tk.Items()[k-1].Count
	for key, truth := range exact {
		if truth > min {
			if _, ok := items[key]; !ok {
				t.Fatalf("key %d (true %d > min %d) evicted", key, truth, min)
			}
		}
	}
}

func TestTopKItemsDeterministicOrder(t *testing.T) {
	tk, _ := NewTopK(8)
	for _, k := range []uint64{5, 3, 9, 3, 5, 5, 7} {
		tk.Update(k, 1)
	}
	items := tk.Items()
	if !sort.SliceIsSorted(items, func(i, j int) bool {
		if items[i].Count != items[j].Count {
			return items[i].Count > items[j].Count
		}
		return items[i].Key < items[j].Key
	}) {
		t.Fatalf("items out of order: %+v", items)
	}
	if items[0].Key != 5 || items[0].Count != 3 {
		t.Fatalf("head = %+v", items[0])
	}
}

func TestTopKMergeKeepsBounds(t *testing.T) {
	const k = 32
	a, _ := NewTopK(k)
	b, _ := NewTopK(k)
	exact := make(map[uint64]uint64)
	stream := zipfStream(t, 31, 2000, 60000, 1.3)
	for i, key := range stream {
		if i%2 == 0 {
			a.Update(key, 1)
		} else {
			b.Update(key, 1)
		}
		exact[key]++
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if len(a.entries) != k {
		t.Fatalf("merged len = %d", len(a.entries))
	}
	for _, it := range a.Items() {
		truth := exact[it.Key]
		if it.Count < truth {
			t.Fatalf("merged key %d: count %d < true %d", it.Key, it.Count, truth)
		}
		if it.Err < it.Count-truth {
			t.Fatalf("merged key %d: err %d does not cover overestimate %d",
				it.Key, it.Err, it.Count-truth)
		}
	}
}

func TestTopKMergeRejectsMismatch(t *testing.T) {
	a, _ := NewTopK(8)
	b, _ := NewTopK(16)
	if err := a.Merge(b); err != ErrShapeMismatch {
		t.Fatalf("err = %v", err)
	}
}

// TestTopKSteadyStateAllocs: once full, updates (hits and evictions)
// touch only preallocated state.
func TestTopKSteadyStateAllocs(t *testing.T) {
	tk, _ := NewTopK(128)
	for i := 0; i < 4096; i++ {
		tk.Update(uint64(i), 1)
	}
	k := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		tk.Update(k%4096, 1) // mix of tracked hits and evictions
		k += 13
	})
	if allocs != 0 {
		t.Fatalf("steady-state Update allocates %.1f/op", allocs)
	}
}
