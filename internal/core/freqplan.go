// Package core implements the paper's contribution: Music-Defined
// Networking. It provides frequency planning (unique per-device tone
// sets with the paper's ≥20 Hz spacing), tone detection over captured
// audio (Goertzel bank or windowed FFT), the MDN controller event
// loop, and the applications evaluated in the paper — port knocking,
// heavy-hitter detection, port-scan detection, load balancing, queue
// monitoring, and server fan-failure detection.
package core

import (
	"fmt"
	"math"
)

// DefaultSpacing is the paper's empirically determined minimum
// distance between assigned frequencies, in Hz: "a distance of
// approximately 20 Hz between frequencies is needed to accurately
// differentiate them" (Section 3).
const DefaultSpacing = 20.0

// FrequencyPlan hands out non-overlapping frequency sets to devices.
// Each switch in the testbed gets a unique set so the controller can
// identify sounds played by different switches at the same time
// (Figure 2a).
type FrequencyPlan struct {
	// MinHz and MaxHz bound the usable band.
	MinHz, MaxHz float64
	// Spacing is the distance between adjacent slots.
	Spacing float64

	nextSlot int
	sets     map[string][]float64
	owner    map[int]slotOwner
}

type slotOwner struct {
	name  string
	index int
}

// DefaultStride is the recommended slot stride for frequencies that
// can be active in the same detection window. The paper's 20 Hz
// figure holds for tones that fill the analysis window; a tone that
// only partially overlaps a 50 ms window smears across ±2–3 bins, so
// robust applications separate their own tones by 4 slots (80 Hz at
// the default spacing) and let the plan burn the guard slots.
const DefaultStride = 4

// NewFrequencyPlan creates a plan over [minHz, maxHz] with the given
// slot spacing.
//
// Constructor invariant (documented panic): non-physical parameters —
// a non-positive band edge or spacing, or maxHz ≤ minHz — are a
// configuration bug and panic at construction time. No post-
// construction method panics.
func NewFrequencyPlan(minHz, maxHz, spacing float64) *FrequencyPlan {
	if minHz <= 0 || maxHz <= minHz || spacing <= 0 {
		panic("core: invalid frequency plan parameters")
	}
	return &FrequencyPlan{
		MinHz:   minHz,
		MaxHz:   maxHz,
		Spacing: spacing,
		sets:    make(map[string][]float64),
		owner:   make(map[int]slotOwner),
	}
}

// DefaultPlan covers 400 Hz – 8 kHz — comfortably inside cheap
// speaker/microphone response — at the paper's 20 Hz spacing,
// yielding 381 slots.
func DefaultPlan() *FrequencyPlan {
	return NewFrequencyPlan(400, 8000, DefaultSpacing)
}

// Capacity returns the total number of slots in the band. With the
// human-hearable range and 20 Hz spacing this lands near the paper's
// "approximately 1000 unique frequencies" figure.
func (p *FrequencyPlan) Capacity() int {
	return int(math.Floor((p.MaxHz-p.MinHz)/p.Spacing)) + 1
}

// Remaining returns how many unallocated slots are left.
func (p *FrequencyPlan) Remaining() int {
	return p.Capacity() - p.nextSlot
}

// slotFreq returns the frequency of slot i.
func (p *FrequencyPlan) slotFreq(i int) float64 {
	return p.MinHz + float64(float64(i)*p.Spacing)
}

// Allocate reserves n consecutive slots for the named device and
// returns their frequencies. Each device may hold only one set;
// re-allocating a name fails. Use AllocateSpaced for tones that can
// sound in the same detection window.
func (p *FrequencyPlan) Allocate(name string, n int) ([]float64, error) {
	return p.AllocateSpaced(name, n, 1)
}

// AllocateSpaced reserves n slots spaced stride slots apart (burning
// the stride-1 guard slots between and after them) and returns the n
// usable frequencies. The guard band keeps simultaneously active
// tones of one application from leaking into each other's detectors.
func (p *FrequencyPlan) AllocateSpaced(name string, n, stride int) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: allocation size %d must be positive", n)
	}
	if stride <= 0 {
		return nil, fmt.Errorf("core: allocation stride %d must be positive", stride)
	}
	if _, dup := p.sets[name]; dup {
		return nil, fmt.Errorf("core: device %q already has a frequency set", name)
	}
	need := n * stride
	if p.nextSlot+need-stride+1 > p.Capacity() {
		return nil, fmt.Errorf("core: plan exhausted: %d slots requested, %d remaining",
			need, p.Remaining())
	}
	out := make([]float64, n)
	for i := range out {
		slot := p.nextSlot + i*stride
		out[i] = p.slotFreq(slot)
		p.owner[slot] = slotOwner{name: name, index: i}
	}
	// Advance past the allocation including its trailing guard slots,
	// but never past the band end: guard slots that would fall beyond
	// the last usable slot don't exist, and counting them would drive
	// Remaining negative (Capacity 10, nextSlot 8, n=1 stride=4 used
	// to leave Remaining at −2).
	if p.nextSlot += need; p.nextSlot > p.Capacity() {
		p.nextSlot = p.Capacity()
	}
	p.sets[name] = out
	return out, nil
}

// MustAllocate is Allocate for deployment-setup code where failure is
// a configuration bug.
//
// Constructor invariant (documented panic): it panics when the plan
// rejects the allocation. Runtime code paths must use Allocate (or
// AllocateSpaced) and handle the error.
func (p *FrequencyPlan) MustAllocate(name string, n int) []float64 {
	out, err := p.Allocate(name, n)
	if err != nil {
		panic("core: MustAllocate: " + err.Error())
	}
	return out
}

// Identify maps an observed frequency back to (device, index within
// the device's set), accepting error up to tol Hz. It reports ok=false
// for frequencies outside every assignment.
func (p *FrequencyPlan) Identify(freq, tol float64) (device string, index int, ok bool) {
	slot := int(math.Round((freq - p.MinHz) / p.Spacing))
	if slot < 0 || slot >= p.nextSlot {
		return "", 0, false
	}
	if math.Abs(freq-p.slotFreq(slot)) > tol {
		return "", 0, false
	}
	o, ok := p.owner[slot]
	if !ok {
		return "", 0, false // guard slot or never allocated
	}
	return o.name, o.index, true
}

// DefaultTolerance is how far an observed peak may sit from its slot
// and still be identified: half the slot spacing.
func (p *FrequencyPlan) DefaultTolerance() float64 { return p.Spacing / 2 }
