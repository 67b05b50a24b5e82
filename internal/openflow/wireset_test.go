package openflow

import (
	"math/rand"
	"testing"
)

// TestWireSetMatchesMap drives random adds and removes through a
// wireSet and a map oracle, and checks every key's membership after
// each step. Half the keys hash to the last slot of any table up to
// 256 slots, so their probe runs are long and wrap around to slot 0,
// which backward-shift deletion must keep reachable.
func TestWireSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var keys [][]byte
	for len(keys) < 64 {
		k := make([]byte, 1+rng.Intn(4))
		rng.Read(k)
		if len(keys)%2 == 0 || hashWire(k)&0xff == 0xff {
			keys = append(keys, k)
		}
	}
	var s wireSet
	oracle := map[string]bool{}
	for step := 0; step < 5000; step++ {
		k := keys[rng.Intn(len(keys))]
		if rng.Intn(2) == 0 {
			s.add(k)
			oracle[string(k)] = true
		} else {
			s.remove(k)
			delete(oracle, string(k))
		}
		if s.n != len(oracle) {
			t.Fatalf("step %d: set holds %d keys, oracle %d", step, s.n, len(oracle))
		}
		for _, q := range keys {
			if s.has(q) != oracle[string(q)] {
				t.Fatalf("step %d: has(%x) = %v, oracle %v", step, q, s.has(q), oracle[string(q)])
			}
		}
	}
}

// TestWireSetReusesKeyBuffers: removing and re-adding keys no longer
// than those removed allocates nothing.
func TestWireSetReusesKeyBuffers(t *testing.T) {
	var s wireSet
	a, b := []byte("rule-a"), []byte("rule-b")
	s.add(a)
	s.add(b)
	if allocs := testing.AllocsPerRun(100, func() {
		s.remove(a)
		s.remove(b)
		s.add(b)
		s.add(a)
	}); allocs != 0 {
		t.Errorf("remove/add cycle allocates %v times, want 0", allocs)
	}
}
