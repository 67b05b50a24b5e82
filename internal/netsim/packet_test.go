package netsim

import (
	"strings"
	"testing"
	"testing/quick"
)

func tuple(sp, dp uint16) FiveTuple {
	return FiveTuple{
		Src: MustAddr("10.0.0.1"), Dst: MustAddr("10.0.0.2"),
		SrcPort: sp, DstPort: dp, Proto: ProtoTCP,
	}
}

func TestFiveTupleHashStable(t *testing.T) {
	a := tuple(1000, 80)
	if a.Hash() != a.Hash() {
		t.Error("hash not stable")
	}
	b := tuple(1000, 81)
	if a.Hash() == b.Hash() {
		t.Error("distinct tuples should (almost surely) hash differently")
	}
}

func TestFiveTupleHashSpreadProperty(t *testing.T) {
	// Property: across many port pairs, hashes rarely collide.
	f := func(seed uint16) bool {
		seen := map[uint64]bool{}
		collisions := 0
		for i := 0; i < 100; i++ {
			h := tuple(seed+uint16(i), 80).Hash()
			if seen[h] {
				collisions++
			}
			seen[h] = true
		}
		return collisions == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFiveTupleString(t *testing.T) {
	s := tuple(1000, 80).String()
	if !strings.Contains(s, "10.0.0.1:1000") || !strings.Contains(s, "10.0.0.2:80") {
		t.Errorf("String() = %q", s)
	}
}

func TestMustAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustAddr("not an address")
}
