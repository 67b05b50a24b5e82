package sketch

import "fmt"

// TopK is a space-saving top-k tracker (Metwally et al.'s
// stream-summary with a binary-heap implementation): it keeps exactly
// k counters; a new key arriving with all counters occupied evicts the
// minimum counter, inheriting its count as overestimation error. The
// guarantees per tracked item are:
//
//	Count - Err <= true count <= Count
//
// and any key whose true count exceeds the minimum tracked count is
// guaranteed to be tracked — so heavy hitters above N/k can never be
// missed, only over-reported.
//
// Update touches only the preallocated entry array and the key index
// map (replacements delete one key and insert another, which Go maps
// satisfy from the freed slot — no steady-state growth), so the hot
// path allocates nothing once the tracker is full.
type TopK struct {
	k       int
	entries []tkEntry      // min-heap on (count, key)
	index   map[uint64]int // key -> heap position
}

type tkEntry struct {
	key   uint64
	count uint64
	err   uint64
}

// NewTopK builds a tracker with capacity for k keys.
func NewTopK(k int) (*TopK, error) {
	if k < 1 {
		return nil, fmt.Errorf("sketch: top-k capacity %d invalid", k)
	}
	return &TopK{
		k:       k,
		entries: make([]tkEntry, 0, k),
		index:   make(map[uint64]int, k),
	}, nil
}

// Bytes returns the tracker's footprint in bytes: the entry array plus
// an estimate of the index map (two words per entry).
func (t *TopK) Bytes() int { return t.k * (24 + 16) }

// less orders the heap by count, breaking ties on key so heap shape is
// a pure function of the update history (deterministic across runs).
func (t *TopK) less(i, j int) bool {
	if t.entries[i].count != t.entries[j].count {
		return t.entries[i].count < t.entries[j].count
	}
	return t.entries[i].key < t.entries[j].key
}

func (t *TopK) swap(i, j int) {
	t.entries[i], t.entries[j] = t.entries[j], t.entries[i]
	t.index[t.entries[i].key] = i
	t.index[t.entries[j].key] = j
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.less(i, parent) {
			return
		}
		t.swap(i, parent)
		i = parent
	}
}

func (t *TopK) siftDown(i int) {
	n := len(t.entries)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && t.less(right, left) {
			min = right
		}
		if !t.less(min, i) {
			return
		}
		t.swap(i, min)
		i = min
	}
}

// Update adds n to key's count, evicting the minimum tracked key if
// the tracker is full and key is new.
func (t *TopK) Update(key uint64, n uint64) {
	if n == 0 {
		return
	}
	if i, ok := t.index[key]; ok {
		t.entries[i].count += n
		t.siftDown(i)
		return
	}
	if len(t.entries) < t.k {
		t.entries = append(t.entries, tkEntry{key: key, count: n})
		i := len(t.entries) - 1
		t.index[key] = i
		t.siftUp(i)
		return
	}
	// Space-saving eviction: the newcomer inherits the minimum count
	// as overestimation error.
	min := &t.entries[0]
	delete(t.index, min.key)
	t.index[key] = 0
	min.err = min.count
	min.count += n
	min.key = key
	t.siftDown(0)
}

// Item is one tracked key with its count bounds.
type Item struct {
	// Key is the tracked key.
	Key uint64
	// Count is the tracked (over-)count: true count <= Count.
	Count uint64
	// Err bounds the overestimate: true count >= Count − Err.
	Err uint64
}

// Items returns the tracked keys sorted by descending count (ties on
// ascending key), so reports are deterministic.
func (t *TopK) Items() []Item {
	out := make([]Item, len(t.entries))
	for i, e := range t.entries {
		out[i] = Item{Key: e.key, Count: e.count, Err: e.err}
	}
	// Insertion sort: k is small and the heap is nearly ordered.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j].Count > out[j-1].Count ||
			(out[j].Count == out[j-1].Count && out[j].Key < out[j-1].Key)); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Merge folds o into t: counts and error bounds of shared keys sum,
// new keys enter through the same space-saving eviction, largest
// first. The result keeps the space-saving invariants (counts remain
// upper bounds, Count−Err lower bounds) but, unlike CountMin and
// HyperLogLog, is not guaranteed identical to a single-pass tracker.
func (t *TopK) Merge(o *TopK) error {
	if t.k != o.k {
		return ErrShapeMismatch
	}
	for _, it := range o.Items() {
		if i, ok := t.index[it.Key]; ok {
			t.entries[i].count += it.Count
			t.entries[i].err += it.Err
			t.siftDown(i)
			continue
		}
		if len(t.entries) < t.k {
			t.entries = append(t.entries, tkEntry{key: it.Key, count: it.Count, err: it.Err})
			i := len(t.entries) - 1
			t.index[it.Key] = i
			t.siftUp(i)
			continue
		}
		min := &t.entries[0]
		if it.Count <= min.count {
			// Everything still in o is no larger; the merged tracker
			// cannot improve on its current minimum.
			if it.Count == min.count {
				continue
			}
			break
		}
		delete(t.index, min.key)
		t.index[it.Key] = 0
		min.err = min.count + it.Err
		min.count += it.Count
		min.key = it.Key
		t.siftDown(0)
	}
	return nil
}
