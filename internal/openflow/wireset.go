package openflow

import "bytes"

// wireSet is a set of byte strings: the Programmer's idempotency keys,
// each a Flow-MOD's exact wire bytes, so two keys are equal exactly
// when their bytes are. It is an open-addressed table with linear
// probing and backward-shift deletion, which leaves no tombstones, and
// removed keys' buffers are reused by later adds, so the set allocates
// only when it grows. Keys must not be empty; no framed message is.
// The zero value is an empty set.
type wireSet struct {
	slots []wireSlot // power-of-two length, at most half full
	spare [][]byte   // buffers of removed keys
	n     int
}

type wireSlot struct {
	hash uint64
	key  []byte // nil marks an empty slot
}

// hashWire is 64-bit FNV-1a.
func hashWire(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// find returns the slot holding b, or the empty slot ending its probe
// run and false. The table must not be empty.
func (s *wireSet) find(b []byte, h uint64) (int, bool) {
	mask := len(s.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.key == nil {
			return i, false
		}
		if sl.hash == h && bytes.Equal(sl.key, b) {
			return i, true
		}
	}
}

func (s *wireSet) has(b []byte) bool {
	if s.n == 0 {
		return false
	}
	_, ok := s.find(b, hashWire(b))
	return ok
}

// add inserts a copy of b.
func (s *wireSet) add(b []byte) {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	h := hashWire(b)
	i, ok := s.find(b, h)
	if ok {
		return
	}
	var buf []byte
	if k := len(s.spare); k > 0 {
		buf, s.spare = s.spare[k-1], s.spare[:k-1]
	}
	s.slots[i] = wireSlot{hash: h, key: append(buf[:0], b...)}
	s.n++
}

// remove deletes b if present, shifting the rest of its probe run back
// so every member stays reachable from its home slot.
func (s *wireSet) remove(b []byte) {
	if s.n == 0 {
		return
	}
	i, ok := s.find(b, hashWire(b))
	if !ok {
		return
	}
	s.spare = append(s.spare, s.slots[i].key)
	s.n--
	mask := len(s.slots) - 1
	for j := (i + 1) & mask; s.slots[j].key != nil; j = (j + 1) & mask {
		// The member at j may fill the hole at i unless its home slot
		// lies cyclically in (i, j].
		home := int(s.slots[j].hash) & mask
		if (i < j && (home <= i || home > j)) || (j < i && home <= i && home > j) {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = wireSlot{}
}

// grow doubles the table (to 8 slots from empty) and rehashes.
func (s *wireSet) grow() {
	old := s.slots
	s.slots = make([]wireSlot, max(8, 2*len(old)))
	mask := len(s.slots) - 1
	for _, sl := range old {
		if sl.key == nil {
			continue
		}
		i := int(sl.hash) & mask
		for s.slots[i].key != nil {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}
