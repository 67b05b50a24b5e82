package netsim

import (
	"sync"

	"mdn/internal/splitmix"
)

// Faults configures wire-level fault injection for a control or
// management path. Each probability is evaluated independently per
// message; zero values disable that fault. Experiments use these knobs
// to measure how the control plane degrades when the channel between
// controller and switch (or switch and Pi) is unreliable.
type Faults struct {
	// DropProb is the probability a whole message is lost in transit.
	DropProb float64
	// FlipProb is the probability one random bit of the message is
	// inverted.
	FlipProb float64
	// TruncProb is the probability the message is cut short at a
	// random byte boundary.
	TruncProb float64
	// JitterMax is the maximum extra one-way latency in seconds; each
	// message pays a uniform extra delay in [0, JitterMax).
	JitterMax float64
	// Seed seeds the deterministic fault stream, so faulty runs replay
	// exactly (0 is a valid seed).
	Seed int64
}

// FaultInjector applies a Faults configuration with a deterministic
// counter-based random stream (splitmix.Stream, 16 bytes). A nil
// injector is valid and injects nothing, so callers can apply it
// unconditionally.
type FaultInjector struct {
	cfg Faults

	mu  sync.Mutex
	rng splitmix.Stream

	// Dropped counts messages lost whole.
	Dropped uint64
	// Flipped counts messages that had a bit inverted.
	Flipped uint64
	// Truncated counts messages cut short.
	Truncated uint64
}

// NewFaultInjector builds an injector for the configuration.
func NewFaultInjector(cfg Faults) *FaultInjector {
	return &FaultInjector{cfg: cfg, rng: splitmix.New(cfg.Seed)}
}

// Mangle applies drop/flip/truncation to one wire message. It returns
// the surviving bytes and true, or nil and false when the message is
// dropped whole. The input is never modified; a corrupted result is a
// copy.
func (f *FaultInjector) Mangle(wire []byte) ([]byte, bool) {
	if f == nil {
		return wire, true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.DropProb > 0 && f.rng.Float64() < f.cfg.DropProb {
		f.Dropped++
		return nil, false
	}
	if f.cfg.TruncProb > 0 && len(wire) > 0 && f.rng.Float64() < f.cfg.TruncProb {
		f.Truncated++
		wire = append([]byte(nil), wire[:f.rng.Intn(len(wire))]...)
	}
	if f.cfg.FlipProb > 0 && len(wire) > 0 && f.rng.Float64() < f.cfg.FlipProb {
		f.Flipped++
		bit := f.rng.Intn(len(wire) * 8)
		cp := append([]byte(nil), wire...)
		cp[bit/8] ^= 1 << (bit % 8)
		wire = cp
	}
	return wire, true
}

// Jitter returns the extra one-way latency for one message, uniform in
// [0, JitterMax).
func (f *FaultInjector) Jitter() float64 {
	if f == nil || f.cfg.JitterMax <= 0 {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64() * f.cfg.JitterMax
}
