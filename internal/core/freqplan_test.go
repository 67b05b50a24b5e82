package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPlanAllocateDisjointSets(t *testing.T) {
	p := NewFrequencyPlan(400, 4000, 20)
	a, err := p.Allocate("s1", 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Allocate("s2", 5)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != 400 || a[4] != 480 {
		t.Errorf("s1 set = %v", a)
	}
	if b[0] != 500 {
		t.Errorf("s2 set starts at %g, want 500", b[0])
	}
	// Disjoint and all 20 Hz apart.
	all := append(append([]float64{}, a...), b...)
	if len(all) != 10 {
		t.Fatalf("assigned = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i]-all[i-1] < 20-1e-9 {
			t.Errorf("spacing violated: %g then %g", all[i-1], all[i])
		}
	}
}

func TestPlanRejectsDuplicatesAndExhaustion(t *testing.T) {
	p := NewFrequencyPlan(400, 500, 20) // 6 slots
	if p.Capacity() != 6 {
		t.Fatalf("capacity = %d", p.Capacity())
	}
	if _, err := p.Allocate("a", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate("a", 1); err == nil {
		t.Error("duplicate name should fail")
	}
	if _, err := p.Allocate("b", 3); err == nil {
		t.Error("over-allocation should fail")
	}
	if _, err := p.Allocate("b", 0); err == nil {
		t.Error("zero-size allocation should fail")
	}
	if _, err := p.Allocate("b", 2); err != nil {
		t.Errorf("exact-fit allocation failed: %v", err)
	}
	if p.Remaining() != 0 {
		t.Errorf("remaining = %d", p.Remaining())
	}
}

func TestPlanIdentify(t *testing.T) {
	p := NewFrequencyPlan(400, 4000, 20)
	p.MustAllocate("s1", 3) // 400 420 440
	p.MustAllocate("s2", 2) // 460 480
	cases := []struct {
		freq   float64
		device string
		index  int
		ok     bool
	}{
		{400, "s1", 0, true},
		{425, "s1", 1, true}, // within half-spacing of 420
		{440, "s1", 2, true},
		{460, "s2", 0, true},
		{487, "s2", 1, true},
		{500, "", 0, false},  // unallocated slot
		{395, "s1", 0, true}, // rounds to slot 0
		{100, "", 0, false},  // below band
	}
	for _, tc := range cases {
		dev, idx, ok := p.Identify(tc.freq, p.DefaultTolerance())
		if ok != tc.ok || dev != tc.device || (ok && idx != tc.index) {
			t.Errorf("Identify(%g) = (%q,%d,%v), want (%q,%d,%v)",
				tc.freq, dev, idx, ok, tc.device, tc.index, tc.ok)
		}
	}
}

func TestPlanIdentifyToleranceBoundary(t *testing.T) {
	p := NewFrequencyPlan(400, 4000, 20)
	p.MustAllocate("s1", 1)
	if _, _, ok := p.Identify(400+5, 4); ok {
		t.Error("outside tolerance should fail")
	}
	if _, _, ok := p.Identify(400+3, 4); !ok {
		t.Error("inside tolerance should pass")
	}
}

func TestPlanCapacityMatchesPaperClaim(t *testing.T) {
	// Human-hearable band at 20 Hz spacing gives the paper's
	// "approximately 1000" simultaneous frequencies.
	p := NewFrequencyPlan(20, 20000, 20)
	if c := p.Capacity(); c < 950 || c > 1050 {
		t.Errorf("capacity = %d, want ~1000", c)
	}
}

// TestPlanDevicesOrder: devices take slots in allocation order, not
// name order, and a frequency no device holds identifies as nothing.
func TestPlanDevicesOrder(t *testing.T) {
	p := DefaultPlan()
	b := p.MustAllocate("b", 1)
	a := p.MustAllocate("a", 1)
	if b[0] >= a[0] {
		t.Errorf("b at %g Hz, a at %g Hz: want b first", b[0], a[0])
	}
	tol := p.DefaultTolerance()
	if dev, _, ok := p.Identify(b[0], tol); !ok || dev != "b" {
		t.Errorf("b's tone identifies as %q, %v", dev, ok)
	}
	if _, _, ok := p.Identify(a[0]+p.Spacing, tol); ok {
		t.Error("an unallocated slot identified as a device")
	}
}

func TestPlanIdentifyRoundTripProperty(t *testing.T) {
	p := NewFrequencyPlan(400, 4000, 20)
	freqs := p.MustAllocate("s1", 100)
	f := func(idx uint8, jitterMilli int16) bool {
		i := int(idx) % len(freqs)
		jitter := float64(jitterMilli) / 1000 * 9 / 32.767 // within ±9 Hz
		dev, gotIdx, ok := p.Identify(freqs[i]+jitter, p.DefaultTolerance())
		return ok && dev == "s1" && gotIdx == i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPlanPanicsOnBadParams(t *testing.T) {
	for _, fn := range []func(){
		func() { NewFrequencyPlan(0, 100, 10) },
		func() { NewFrequencyPlan(100, 50, 10) },
		func() { NewFrequencyPlan(100, 200, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMustAllocatePanicsOnError(t *testing.T) {
	p := NewFrequencyPlan(400, 440, 20)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.MustAllocate("x", 99)
}

func TestDefaultPlanShape(t *testing.T) {
	p := DefaultPlan()
	if p.MinHz != 400 || p.MaxHz != 8000 || p.Spacing != 20 {
		t.Errorf("default plan = %+v", p)
	}
	if math.Abs(p.DefaultTolerance()-10) > 1e-12 {
		t.Errorf("tolerance = %g", p.DefaultTolerance())
	}
}

func TestAllocateSpacedTrailingGuardClampsRemaining(t *testing.T) {
	// Capacity 10 (400..580). Burn 8 slots, then allocate 1 slot with
	// stride 4: the tone fits in slot 8, but the 3 trailing guard
	// slots run past the band end. The advance must clamp at the band
	// end so Remaining reports 0 or 1 usable slot, never a negative.
	p := NewFrequencyPlan(400, 580, 20)
	if c := p.Capacity(); c != 10 {
		t.Fatalf("capacity = %d, want 10", c)
	}
	p.MustAllocate("burn", 8)
	a, err := p.AllocateSpaced("s1", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != 560 {
		t.Fatalf("allocated %v, want [560]", a)
	}
	if r := p.Remaining(); r < 0 {
		t.Errorf("Remaining = %d after trailing-guard allocation, want >= 0", r)
	}
	// Exhausted for spaced allocations but also for plain ones: the
	// slot after 560's (truncated) guard band is past the band end.
	if _, err := p.Allocate("s2", 1); err == nil {
		t.Error("allocation past the band end should fail")
	}
	if r := p.Remaining(); r != 0 {
		t.Errorf("Remaining = %d at exhaustion, want 0", r)
	}
}

func TestAllocateSpacedGuardBands(t *testing.T) {
	p := NewFrequencyPlan(400, 4000, 20)
	a, err := p.AllocateSpaced("s1", 3, 4) // 400 480 560, burning to 640
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != 400 || a[1] != 480 || a[2] != 560 {
		t.Fatalf("spaced set = %v", a)
	}
	b := p.MustAllocate("s2", 1)
	if b[0] != 640 {
		t.Errorf("next allocation at %g, want 640 (after guard band)", b[0])
	}
	// Guard slots are not identifiable.
	if _, _, ok := p.Identify(420, 10); ok {
		t.Error("guard slot 420 should not identify")
	}
	if dev, idx, ok := p.Identify(480, 10); !ok || dev != "s1" || idx != 1 {
		t.Errorf("Identify(480) = %q %d %v", dev, idx, ok)
	}
	if _, err := p.AllocateSpaced("s3", 1, 0); err == nil {
		t.Error("zero stride should fail")
	}
}
