package acoustic

import "fmt"

// This file is the device degradation model: deterministic, schedulable
// parameter ramps that let a chaos run age hardware mid-scenario. A
// microphone can lose sensitivity (down to stone deaf) or watch its
// electronics noise floor climb; a speaker can lose output level or
// drift off pitch. Each fault is a linear ramp from the parameter's
// value at the ramp start to a target value at the ramp end, evaluated
// purely from the schedule and the query time — no hidden state, no
// wall clock — so every capture of the same window renders the same
// waveform and the parallel sweep's byte-identity contract survives.
//
// Healing is scheduling too: ramping a parameter back to its base
// value models a repair (or an operator swapping the unit). The
// evaluation rule — the latest ramp whose start precedes the query
// wins — makes fault/clear sequences compose without special cases.

// ramp is one scheduled linear parameter transition.
type ramp struct {
	start, end float64 // seconds; end > start
	from, to   float64 // parameter value at start and at end
}

// at evaluates the ramp at time t (caller guarantees t >= r.start).
func (r *ramp) at(t float64) float64 {
	if t >= r.end {
		return r.to
	}
	return r.from + (r.to-r.from)*(t-r.start)/(r.end-r.start)
}

// deviceParam is a schedulable device parameter: a base value owned by
// the caller plus an ordered list of ramps. The zero value (no ramps)
// always evaluates to the base — the healthy device costs nothing.
type deviceParam struct {
	ramps []ramp
}

// atBase evaluates the parameter at time t against the given base
// value: the latest ramp whose start is at or before t wins; before
// the first ramp the parameter is the base.
func (p *deviceParam) atBase(base, t float64) float64 {
	for i := len(p.ramps) - 1; i >= 0; i-- {
		if p.ramps[i].start <= t {
			return p.ramps[i].at(t)
		}
	}
	return base
}

// steadyOver reports whether the parameter holds one value over the
// whole of [t0, t1], and that value, which atBase would return at
// every t in it: no ramp starts in (t0, t1], and the ramp in force at
// t0, if any, has ended by t0.
func (p *deviceParam) steadyOver(base, t0, t1 float64) (float64, bool) {
	for i := len(p.ramps) - 1; i >= 0; i-- {
		r := &p.ramps[i]
		switch {
		case r.start > t1:
			continue
		case r.start > t0 || t0 < r.end:
			return 0, false
		}
		return r.to, true
	}
	return base, true
}

// schedule appends a ramp from the parameter's value at start to
// target at end. Ramps must be scheduled forward: start must not
// precede an already-scheduled ramp's start, and end must exceed
// start. Wiring errors fail loudly, like the Add* registrations.
func (p *deviceParam) schedule(base, start, end, target float64) {
	if end <= start {
		panic(fmt.Sprintf("acoustic: degradation ramp end %g <= start %g", end, start))
	}
	if n := len(p.ramps); n > 0 && start < p.ramps[n-1].start {
		panic(fmt.Sprintf("acoustic: degradation ramp at %g scheduled before existing ramp at %g",
			start, p.ramps[n-1].start))
	}
	p.ramps = append(p.ramps, ramp{start: start, end: end, from: p.atBase(base, start), to: target})
}

// ScheduleNoiseRamp schedules the microphone's self-noise floor to ramp
// linearly from its current value to targetRMS (linear RMS) over
// [start, end) seconds. While a ramp is in progress captures evaluate
// it per sample, at each sample's absolute time on the room's sample
// grid, so a ramped hiss is the same however a span is split into
// captures. The audibility cull floor (CullAuto) follows it too: each
// emission is culled against the floor at its own arrival.
func (m *Microphone) ScheduleNoiseRamp(start, end, targetRMS float64) {
	if targetRMS < 0 {
		panic("acoustic: negative noise floor")
	}
	r := m.room
	r.mu.Lock()
	defer r.mu.Unlock()
	m.noiseRamp.schedule(m.SelfNoiseRMS, start, end, targetRMS)
}

// ScheduleSensitivityRamp schedules the microphone's sensitivity (a
// linear gain on everything the diaphragm picks up; 1.0 = healthy,
// 0 = deaf) to ramp from its current value to target over [start, end)
// seconds. Self-noise is electronics noise downstream of the
// transducer, so it is NOT scaled: a deaf microphone still hisses. Like
// the noise ramp, the gain is evaluated per sample on the room's
// absolute grid while the ramp moves, so split captures agree.
func (m *Microphone) ScheduleSensitivityRamp(start, end, target float64) {
	if target < 0 {
		panic("acoustic: negative sensitivity")
	}
	r := m.room
	r.mu.Lock()
	defer r.mu.Unlock()
	m.sensRamp.schedule(1, start, end, target)
}

// ScheduleAmplitudeDecay schedules the speaker's output gain (1.0 =
// healthy) to ramp from its current value to target over [start, end)
// seconds. The gain applies to emissions at their scheduled start
// time.
func (s *Speaker) ScheduleAmplitudeDecay(start, end, target float64) {
	if target < 0 {
		panic("acoustic: negative speaker gain")
	}
	r := s.room
	r.mu.Lock()
	defer r.mu.Unlock()
	s.gainRamp.schedule(1, start, end, target)
}

// ScheduleDetune schedules the speaker's frequency ratio (emitted
// frequency / commanded frequency; 1.0 = in tune) to ramp from its
// current value to target over [start, end) seconds — an aging driver
// or a clock drifting off its crystal.
func (s *Speaker) ScheduleDetune(start, end, target float64) {
	if target <= 0 {
		panic("acoustic: detune ratio must be positive")
	}
	r := s.room
	r.mu.Lock()
	defer r.mu.Unlock()
	s.detuneRamp.schedule(1, start, end, target)
}

// noiseAt returns the microphone's effective self-noise RMS at time t.
// The caller holds the room lock (read side is enough).
func (m *Microphone) noiseAt(t float64) float64 {
	return m.noiseRamp.atBase(m.SelfNoiseRMS, t)
}

// sensAt returns the microphone's sensitivity at time t. The caller
// holds the room lock (read side is enough).
func (m *Microphone) sensAt(t float64) float64 {
	return m.sensRamp.atBase(1, t)
}

// Microphone returns the named microphone or nil.
func (r *Room) Microphone(name string) *Microphone {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.mics[name]
}
