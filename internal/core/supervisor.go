package core

import (
	"fmt"

	"mdn/internal/telemetry"
)

// subscriber is one supervised handler registration. The controller
// runs every handler inside a recover barrier: a panicking subscriber
// is counted and, after quarantineThreshold consecutive panics,
// quarantined (never called again) — one misbehaving application
// cannot take down port knocking, heavy-hitter detection, and
// heartbeats with it. A window that completes without panicking
// resets the consecutive count, so transient failures do not
// accumulate toward quarantine.
type subscriber struct {
	name  string
	onWin func(windowStart float64, dets []Detection)

	consecutive   int
	panics        uint64
	quarantined   bool
	quarantinedAt float64

	// dispatch records per-call handler wall time when the controller
	// is instrumented (nil otherwise — observing a nil histogram is a
	// no-op).
	dispatch *telemetry.Histogram
}

// quarantineThreshold is how many consecutive panics disable a
// subscriber.
const quarantineThreshold = 3

// SubscriberStatus is one subscriber's supervision state, surfaced
// through Health().
type SubscriberStatus struct {
	// Name identifies the subscriber (explicit via
	// SubscribeWindowsNamed, or auto-generated).
	Name string
	// Panics counts recovered panics in this subscriber.
	Panics uint64
	// Quarantined reports whether the circuit breaker disabled it.
	Quarantined bool
	// QuarantinedAt is the virtual time of quarantine (valid when
	// Quarantined).
	QuarantinedAt float64
}

// invoke runs one subscriber callback under the supervision barrier.
// It must be called on the simulation goroutine.
func (c *Controller) invoke(s *subscriber, from float64, dets []Detection) {
	if s.quarantined {
		return
	}
	sp := telemetry.StartSpan(s.dispatch, c.tm.wall)
	defer func() {
		sp.End()
		if r := recover(); r != nil {
			c.HandlerPanics++
			c.tm.panics.Inc()
			s.panics++
			s.consecutive++
			now := c.sim.Now()
			c.Errors.Record(now, s.name, fmt.Errorf("%w: %s: %v", ErrHandlerPanic, s.name, r))
			if s.consecutive >= quarantineThreshold {
				s.quarantined = true
				s.quarantinedAt = now
				c.tm.quarantines.Inc()
				c.Errors.Record(now, s.name, fmt.Errorf(
					"%w: %s disabled after %d consecutive panics", ErrQuarantined, s.name, s.consecutive))
			}
			return
		}
		s.consecutive = 0
	}()
	s.onWin(from, dets)
}

// snapshotSubs returns the subscriber list as seen under the
// registration lock. The snapshot is cached and rebuilt only when the
// list has changed since the last call (a generation counter tracks
// registrations), so the per-window dispatch path allocates nothing in
// steady state. Each rebuild allocates a fresh backing array — an
// earlier snapshot may still be mid-iteration on another goroutine, so
// the cache is never rebuilt in place.
func (c *Controller) snapshotSubs() []*subscriber {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.snapGen != c.subsGen {
		snap := make([]*subscriber, len(c.subs))
		copy(snap, c.subs)
		c.snap = snap
		c.snapGen = c.subsGen
	}
	return c.snap
}

func (c *Controller) addSubscriber(s *subscriber) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subsGen++
	if s.name == "" {
		c.autoName++
		s.name = fmt.Sprintf("window-handler-%d", c.autoName)
	}
	c.instrumentSub(s)
	c.subs = append(c.subs, s)
}

// Subscribers returns every subscriber's supervision status in
// registration order.
func (c *Controller) Subscribers() []SubscriberStatus {
	subs := c.snapshotSubs()
	out := make([]SubscriberStatus, 0, len(subs))
	for _, s := range subs {
		out = append(out, SubscriberStatus{
			Name:          s.name,
			Panics:        s.panics,
			Quarantined:   s.quarantined,
			QuarantinedAt: s.quarantinedAt,
		})
	}
	return out
}
