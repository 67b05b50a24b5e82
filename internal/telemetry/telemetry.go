// Package telemetry is the MDN pipeline's dependency-free metrics
// layer: a registry of atomic counters, gauges and fixed-bucket
// histograms whose update paths allocate nothing, plus lightweight
// spans for timing pipeline stages against an explicit clock.
//
// Two clocks matter in this repo and the package is careful to keep
// them apart:
//
//   - Wall time (Wall) measures real compute — how long the FFT or a
//     subscriber callback actually took. It is the clock behind the
//     decode- and dispatch-latency histograms, matching what the
//     paper's Figure 2b measures.
//   - Virtual time (any TimeSource, e.g. *netsim.Sim) measures
//     protocol latencies — knock-to-install, retry backoff, beat-to-
//     alert — which elapse on the simulation clock and are therefore
//     exactly reproducible.
//
// Both are just TimeSource implementations; a Span does not care
// which one it was started on, and tests can substitute a StepClock
// to make even "wall" measurements deterministic.
//
// All metric types are nil-safe: methods on a nil *Counter, *Gauge or
// *Histogram are no-ops, and every method of a nil *Registry returns
// a nil metric. Uninstrumented components therefore pay one pointer
// test per update and no branches elsewhere — Instrument wiring stays
// out of hot-path signatures.
package telemetry

import (
	"strings"
	"time"
)

// TimeSource yields the current time in seconds. *netsim.Sim
// satisfies it (virtual seconds); Wall() returns a monotonic
// wall-clock source (seconds since process start).
type TimeSource interface {
	Now() float64
}

type wallSource struct{ base time.Time }

func (w wallSource) Now() float64 { return time.Since(w.base).Seconds() }

// wall is shared so Wall() never allocates.
var wall TimeSource = wallSource{base: time.Now()}

// Wall returns the process-wide monotonic wall clock. Use it for
// compute-time histograms (decode, dispatch); use the simulation
// clock for protocol-latency spans.
func Wall() TimeSource { return wall }

// StepClock is a deterministic TimeSource for tests: every Now call
// advances the clock by Step and returns the new time. Injecting one
// makes wall-time measurements byte-for-byte reproducible.
type StepClock struct {
	// T is the current time; Now returns T after advancing it.
	T float64
	// Step is the advance per Now call.
	Step float64
}

// Now advances the clock by Step and returns it.
func (c *StepClock) Now() float64 {
	c.T += c.Step
	return c.T
}

// Span is one in-flight stage measurement. It is a value type: Start
// and End allocate nothing, so spans are safe on the per-window hot
// path.
type Span struct {
	h   *Histogram
	src TimeSource
	t0  float64
}

// StartSpan begins timing against src (Wall() when src is nil). A nil
// histogram yields an inert span whose End is a no-op — the clock is
// not even read.
func StartSpan(h *Histogram, src TimeSource) Span {
	if h == nil {
		return Span{}
	}
	if src == nil {
		src = wall
	}
	return Span{h: h, src: src, t0: src.Now()}
}

// End observes the elapsed time into the span's histogram and returns
// it (0 for an inert span).
func (s Span) End() float64 {
	if s.h == nil {
		return 0
	}
	d := s.src.Now() - s.t0
	s.h.Observe(d)
	return d
}

// Label renders name{k1="v1",k2="v2"} from alternating key/value
// pairs. It is intended for registration time, not the hot path.
// Label values are escaped per the Prometheus text exposition format.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
