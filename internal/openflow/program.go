package openflow

import (
	"errors"
	"fmt"

	"mdn/internal/splitmix"
	"mdn/internal/telemetry"
)

// ErrRetriesExhausted reports a flow-programming operation that
// failed on every attempt over a lossy control channel.
var ErrRetriesExhausted = errors.New("openflow: flow programming retries exhausted")

// Programmer is a retrying flow-programming wrapper around a Channel:
// every Install is attempted with bounded exponential backoff plus
// deterministic jitter, scheduled on simulated time, until the
// message survives the wire or the attempt budget is spent. A per-rule
// idempotency key (the marshalled wire bytes) makes retries safe over
// a lossy channel: a rule the programmer has already confirmed
// installed is never sent again, so a duplicate Install — or a
// handler re-firing after partial failure — cannot double-install.
//
// The programmer is driven entirely by the simulation goroutine; it
// is not safe for concurrent use from other goroutines.
type Programmer struct {
	// OnResult, when set, observes each rule's terminal outcome: err
	// is nil on confirmed install, wraps ErrRetriesExhausted on
	// give-up. Validation failures are returned synchronously by
	// Install and do not reach OnResult.
	OnResult func(m FlowMod, err error)

	ch  *Channel
	rng splitmix.Stream

	installed map[string]bool
	pending   int

	// Attempts counts wire sends, Retries the re-sends among them.
	Attempts uint64
	Retries  uint64
	// Installs counts rules confirmed through the wire; Duplicates
	// counts Installs suppressed by the idempotency key; Failures
	// counts rules given up on.
	Installs   uint64
	Duplicates uint64
	Failures   uint64

	// Telemetry handles, nil until Instrument; every update is
	// nil-safe.
	tmAttempts   *telemetry.Counter
	tmRetries    *telemetry.Counter
	tmInstalls   *telemetry.Counter
	tmDuplicates *telemetry.Counter
	tmFailures   *telemetry.Counter
	tmProgram    *telemetry.Histogram
}

// Retry policy.
const (
	// maxAttempts bounds tries per rule.
	maxAttempts = 8
	// baseBackoff is the first retry delay in seconds; it doubles per
	// retry up to maxBackoff.
	baseBackoff = 0.050
	maxBackoff  = 1.0
	// jitterFrac spreads each backoff uniformly over
	// [1-jitterFrac/2, 1+jitterFrac/2) of its nominal value,
	// decorrelating retry storms.
	jitterFrac = 0.5
)

// NewProgrammer wraps a channel. The seed drives the retry jitter, so
// runs replay exactly.
func NewProgrammer(ch *Channel, seed int64) *Programmer {
	return &Programmer{
		ch:        ch,
		rng:       splitmix.New(seed),
		installed: make(map[string]bool),
	}
}

// Channel returns the wrapped channel.
func (p *Programmer) Channel() *Channel { return p.ch }

// Instrument registers the programmer's counters and its
// flow-programming latency histogram with reg, labelled by the
// channel's switch name:
//
//	mdn_flow_{attempts,retries,installs,duplicates,failures}_total{switch}
//	mdn_flow_program_seconds{switch}
//
// The histogram measures Install→outcome in *virtual* seconds — it is
// a protocol latency (backoff schedule plus wire round trips), so the
// same seed reproduces the same distribution exactly.
func (p *Programmer) Instrument(reg *telemetry.Registry) {
	name := p.ch.Switch().Name
	label := func(metric string) string { return telemetry.Label(metric, "switch", name) }
	p.tmAttempts = reg.Counter(label("mdn_flow_attempts_total"))
	p.tmRetries = reg.Counter(label("mdn_flow_retries_total"))
	p.tmInstalls = reg.Counter(label("mdn_flow_installs_total"))
	p.tmDuplicates = reg.Counter(label("mdn_flow_duplicates_total"))
	p.tmFailures = reg.Counter(label("mdn_flow_failures_total"))
	p.tmProgram = reg.Histogram(label("mdn_flow_program_seconds"), telemetry.DefaultLatencyBuckets)
}

// Forget drops the rule's idempotency key, so a later Install sends it
// again. Callers use it when re-installation is deliberate — a
// re-triggered application intent — rather than a retry.
func (p *Programmer) Forget(m FlowMod) {
	if wire, err := MarshalFlowMod(m); err == nil {
		delete(p.installed, string(wire))
	}
}

// Install programs the rule through the channel, retrying lost or
// corrupted sends with backoff. It returns an error only for rules
// the wire format rejects outright (wrapping ErrBadMessage or
// ErrTooLarge); wire-loss outcomes are asynchronous and reported
// through OnResult. A rule already confirmed installed is suppressed
// and counted in Duplicates.
func (p *Programmer) Install(m FlowMod) error {
	wire, err := MarshalFlowMod(m)
	if err != nil {
		return fmt.Errorf("openflow: programmer: %w", err)
	}
	if p.installed[string(wire)] {
		p.Duplicates++
		p.tmDuplicates.Inc()
		return nil
	}
	p.pending++
	p.attempt(m, wire, 0, p.ch.Sim().Now())
	return nil
}

// attempt sends wire, m marshalled once by Install, and schedules the
// next try if the wire loses it. The bytes double as the rule's
// idempotency key.
func (p *Programmer) attempt(m FlowMod, wire []byte, try int, start float64) {
	p.Attempts++
	p.tmAttempts.Inc()
	if try > 0 {
		p.Retries++
		p.tmRetries.Inc()
	}
	delivered, err := p.ch.sendWire(wire)
	if err != nil {
		// Validate passed at Install time; a send error here means the
		// channel (without fault injection) failed the wire round
		// trip — terminal.
		p.finish(m, start, fmt.Errorf("%w: %v", ErrRetriesExhausted, err))
		return
	}
	if delivered {
		p.installed[string(wire)] = true
		p.Installs++
		p.tmInstalls.Inc()
		p.finish(m, start, nil)
		return
	}
	if try+1 >= maxAttempts {
		p.Failures++
		p.tmFailures.Inc()
		p.finish(m, start, fmt.Errorf("%w: %d attempts lost on %q",
			ErrRetriesExhausted, try+1, p.ch.Switch().Name))
		return
	}
	p.ch.Sim().After(p.backoff(try), func() { p.attempt(m, wire, try+1, start) })
}

func (p *Programmer) finish(m FlowMod, start float64, err error) {
	p.pending--
	p.tmProgram.Observe(p.ch.Sim().Now() - start)
	if p.OnResult != nil {
		p.OnResult(m, err)
	}
}

// backoff returns the delay before retry number try+1: exponential
// from baseBackoff, capped at maxBackoff, jittered by jitterFrac.
func (p *Programmer) backoff(try int) float64 {
	d := baseBackoff
	for i := 0; i < try && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	return d * (1 + jitterFrac*(p.rng.Float64()-0.5))
}
