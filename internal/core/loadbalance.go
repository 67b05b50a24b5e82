package core

import (
	"fmt"

	"mdn/internal/openflow"
)

// LoadBalancer is the Section 6 traffic-engineering application: it
// listens for a queue monitor's "congested" tone and, on first
// hearing it, sends the Flow-MOD that splits traffic across two
// ports (Figure 5a-b). Later congested tones are ignored: the paper's
// experiment splits once. The entire control loop is out-of-band: the
// only signal from switch to controller is sound.
//
// Flow programming goes through a retrying openflow.Programmer, so a
// lossy control channel costs latency, not correctness; terminal
// failures are recorded (never panicked) and surface through the
// error log and the controller's Health snapshot.
type LoadBalancer struct {
	// SplitRule is the Flow-MOD installed on congestion.
	SplitRule openflow.FlowMod

	qm    *QueueMonitor
	prog  *openflow.Programmer
	onset *OnsetFilter
	errs  *ErrorLog

	// Triggered reports whether the split rule was sent.
	Triggered bool
	// TriggeredAt is when the split rule was sent: the virtual time the
	// window that heard the congested tone was analysed, one window
	// after that window's start.
	TriggeredAt float64
	// Triggers counts congestion tones acted upon.
	Triggers uint64
	// Installed reports the split rule confirmed through the channel
	// (possibly after retries); InstalledAt is when it lands on the
	// switch, the channel's Latency after the confirmed send (fault
	// jitter not included).
	Installed   bool
	InstalledAt float64
	// ProgramFailures counts terminal flow-programming failures.
	ProgramFailures uint64
	// LastErr is the most recent programming failure (nil when none).
	LastErr error
}

// NewLoadBalancer listens to the queue monitor's tones and programs
// the switch behind ch when congestion is heard.
func NewLoadBalancer(qm *QueueMonitor, ch *openflow.Channel, splitRule openflow.FlowMod) *LoadBalancer {
	lb := &LoadBalancer{
		SplitRule: splitRule,
		qm:        qm,
		prog:      openflow.NewProgrammer(ch, 1),
		onset:     NewOnsetFilter(),
	}
	lb.prog.OnResult = func(m openflow.FlowMod, err error) {
		if err != nil {
			lb.recordFailure(err)
			return
		}
		lb.Installed = true
		lb.InstalledAt = ch.Sim().Now() + ch.Latency
	}
	return lb
}

// Programmer exposes the retrying flow programmer (to read its
// counters).
func (lb *LoadBalancer) Programmer() *openflow.Programmer { return lb.prog }

// SetErrorLog routes programming failures into a shared log —
// typically the controller's, so they feed its health state.
func (lb *LoadBalancer) SetErrorLog(l *ErrorLog) { lb.errs = l }

func (lb *LoadBalancer) recordFailure(err error) {
	lb.ProgramFailures++
	lb.LastErr = err
	lb.errs.Record(lb.prog.Channel().Sim().Now(), "loadbalance",
		fmt.Errorf("%w: split rule: %v", ErrFlowProgram, err))
}

// HandleWindow is the controller-side hook (wire via
// Controller.SubscribeWindows, after the queue monitor's own
// HandleWindow so Heard stays consistent).
func (lb *LoadBalancer) HandleWindow(_ float64, dets []Detection) {
	// Confirmed onsets only: tone-boundary splatter from the low and
	// mid tones must not masquerade as congestion.
	for _, det := range lb.onset.Step(dets) {
		if lb.qm.LevelFor(det.Frequency) != LevelHigh {
			continue
		}
		if lb.Triggered {
			return
		}
		lb.Triggers++
		lb.Triggered = true
		lb.TriggeredAt = lb.prog.Channel().Sim().Now()
		if err := lb.prog.Install(lb.SplitRule); err != nil {
			lb.recordFailure(err)
		}
		return
	}
}
