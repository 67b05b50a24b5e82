package core

import (
	"mdn/internal/mp"
	"mdn/internal/netsim"
	"mdn/internal/telemetry"
)

// Voice is a switch's tone-emitting side: it turns application events
// into Music Protocol messages, rate-limited per frequency so that
// data-plane packet rates never translate into overlapping
// same-frequency tones (which a detector could not count). This is
// the policy knob Section 3 describes: sound length, duration and
// intensity "can be treated as a policy".
type Voice struct {
	// ToneDuration is the emitted tone length in seconds. The
	// paper's shortest usable tone was ~30 ms; the default is 65 ms
	// so a tone always overlaps at least two 50 ms detection windows
	// substantially, which the controller's 2-window onset
	// confirmation requires.
	ToneDuration float64
	// Intensity is the emission loudness in dB SPL at 1 m. The paper
	// played tones of at least 30 dB; the default is 60 dB.
	Intensity float64

	sim     *netsim.Sim
	sounder *mp.Sounder
	last    map[float64]float64
	muted   bool

	// Emitted counts accepted emissions.
	Emitted uint64
	// Suppressed counts emissions dropped by rate limiting.
	Suppressed uint64
}

// VoiceMinGap is the minimum time between two emissions of the same
// frequency, in seconds. It must be long enough that at least one full
// controller window of silence separates consecutive tones (tone
// duration + propagation + two windows), or the onset filter cannot
// re-arm and undercounts.
const VoiceMinGap = 0.150

// NewVoice wires a voice to a switch's Music Protocol sounder.
func NewVoice(sim *netsim.Sim, sounder *mp.Sounder) *Voice {
	return &Voice{
		ToneDuration: 0.065,
		Intensity:    60,
		sim:          sim,
		sounder:      sounder,
		last:         make(map[float64]float64),
	}
}

// Play emits a tone at freq now, unless the same frequency was played
// less than VoiceMinGap ago. It reports whether the tone was emitted.
func (v *Voice) Play(freq float64) bool {
	if v.muted {
		v.Suppressed++
		return false
	}
	now := v.sim.Now()
	if t, seen := v.last[freq]; seen && now-t < VoiceMinGap {
		v.Suppressed++
		return false
	}
	v.last[freq] = now
	v.Emitted++
	v.sounder.Emit(mp.Message{
		Frequency: freq,
		Duration:  v.ToneDuration,
		Intensity: v.Intensity,
	})
	return true
}

// PlayMessage emits an explicit MP message without rate limiting —
// for applications that do their own pacing.
func (v *Voice) PlayMessage(m mp.Message) {
	if v.muted {
		v.Suppressed++
		return
	}
	v.Emitted++
	v.sounder.Emit(m)
}

// SetMuted silences (or un-silences) the voice: while muted, Play and
// PlayMessage drop emissions and count them as suppressed. The
// device-health monitor mutes a voice whose speaker has gone silent
// beyond recovery, so a dead driver stops burning the shared acoustic
// channel. Call from the simulation goroutine (like Play).
func (v *Voice) SetMuted(muted bool) { v.muted = muted }

// Muted reports whether the voice is muted.
func (v *Voice) Muted() bool { return v.muted }

// Sounder returns the underlying switch-side MP sender — the hook for
// fault injection and for registering its counters with the
// controller's Health snapshot.
func (v *Voice) Sounder() *mp.Sounder { return v.sounder }

// Instrument exposes the voice's emission counters under
// switch=switchName.
func (v *Voice) Instrument(reg *telemetry.Registry, switchName string) {
	reg.Func(telemetry.Label(metricVoiceEmitted, "switch", switchName),
		func() float64 { return float64(v.Emitted) })
	reg.Func(telemetry.Label(metricVoiceSuppressed, "switch", switchName),
		func() float64 { return float64(v.Suppressed) })
}
