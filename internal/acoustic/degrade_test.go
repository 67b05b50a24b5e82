package acoustic

import (
	"math"
	"testing"

	"mdn/internal/audio"
	"mdn/internal/dsp"
)

func TestDeviceParamRampEvaluation(t *testing.T) {
	var p deviceParam
	p.schedule(0.002, 1, 3, 0.010) // ramp 0.002 -> 0.010 over [1, 3)
	cases := []struct{ t, want float64 }{
		{0, 0.002},   // before the ramp: base
		{1, 0.002},   // ramp start: from
		{2, 0.006},   // midpoint
		{3, 0.010},   // ramp end: target
		{100, 0.010}, // holds after
	}
	for _, c := range cases {
		if got := p.atBase(0.002, c.t); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("atBase(t=%g) = %g, want %g", c.t, got, c.want)
		}
	}
	// A clearing ramp starts from the value the fault left behind.
	p.schedule(0.002, 5, 6, 0.002)
	if got := p.atBase(0.002, 5); math.Abs(got-0.010) > 1e-15 {
		t.Errorf("clear ramp start = %g, want 0.010 (the faulted value)", got)
	}
	if got := p.atBase(0.002, 7); math.Abs(got-0.002) > 1e-15 {
		t.Errorf("after clear = %g, want base 0.002", got)
	}
}

// TestDeviceParamSteadyOver: a span reported steady has atBase equal
// to the reported value at every point of it, and a span a ramp moves
// through is never reported steady.
func TestDeviceParamSteadyOver(t *testing.T) {
	const base = 0.002
	var p deviceParam
	p.schedule(base, 1, 3, 0.010)
	p.schedule(base, 5, 6, base)
	p.schedule(base, 5, 5.5, 0.004) // same start: the later ramp wins
	steady := 0
	for t0 := 0.0; t0 < 8; t0 += 0.25 {
		for t1 := t0; t1 < 8; t1 += 0.25 {
			v, ok := p.steadyOver(base, t0, t1)
			moves := false
			for x := t0; x <= t1; x += 0.05 {
				moves = moves || p.atBase(base, x) != p.atBase(base, t0)
			}
			moves = moves || p.atBase(base, t1) != p.atBase(base, t0)
			switch {
			case ok && (moves || v != p.atBase(base, t0)):
				t.Errorf("[%g, %g] reported steady at %g, but atBase moves from %g", t0, t1, v, p.atBase(base, t0))
			case !ok && !moves && (t1 < 1 || t0 >= 3 && t1 < 5 || t0 >= 5.5):
				t.Errorf("[%g, %g] outside every ramp reported moving", t0, t1)
			case ok:
				steady++
			}
		}
	}
	if steady == 0 {
		t.Error("no span reported steady")
	}
}

func TestDeviceParamRejectsBackwardSchedule(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("backward ramp accepted")
		}
	}()
	var p deviceParam
	p.schedule(1, 5, 6, 0)
	p.schedule(1, 2, 3, 0)
}

func TestMicNoiseRampRaisesCaptureFloor(t *testing.T) {
	r := newTestRoom()
	mic := r.AddMicrophone("ctl", Position{0, 0}, 0.001)
	mic.ScheduleNoiseRamp(1, 2, 0.1)

	before := mic.Capture(0, 0.05).RMS()
	after := mic.Capture(3, 3.05).RMS()
	if math.Abs(before-0.001) > 0.0005 {
		t.Errorf("pre-ramp noise rms = %g, want ~0.001", before)
	}
	if math.Abs(after-0.1) > 0.02 {
		t.Errorf("post-ramp noise rms = %g, want ~0.1", after)
	}

	if n, s := mic.noiseAt(3), mic.sensAt(3); n != 0.1 || mic.SelfNoiseRMS != 0.001 || s == 0 {
		t.Errorf("noise/sensitivity at t=3 = %g/%g", n, s)
	}
}

func TestMicSensitivityRampScalesTonesNotSelfNoise(t *testing.T) {
	r := newTestRoom()
	sp := r.AddSpeaker("sw1", Position{1, 0})
	mic := r.AddMicrophone("ctl", Position{0, 0}, 0.001)
	mic.ScheduleSensitivityRamp(1, 1.5, 0) // deaf from t=1.5

	sp.Play(0.1, audio.Tone{Frequency: 700, Duration: 0.1, Amplitude: 0.5})
	sp.Play(2.1, audio.Tone{Frequency: 700, Duration: 0.1, Amplitude: 0.5})

	healthy := mic.Capture(0.15, 0.2)
	if g := dsp.Goertzel(healthy.Samples, 700, r.SampleRate); g < 100 {
		t.Errorf("healthy mic missed the tone: goertzel = %g", g)
	}
	deaf := mic.Capture(2.15, 2.2)
	if g := dsp.Goertzel(deaf.Samples, 700, r.SampleRate); g > 1 {
		t.Errorf("deaf mic heard the tone: goertzel = %g", g)
	}
	// Electronics hiss survives deafness.
	if rms := deaf.RMS(); math.Abs(rms-0.001) > 0.0005 {
		t.Errorf("deaf mic self-noise rms = %g, want ~0.001", rms)
	}
	if s := mic.sensAt(2); s != 0 {
		t.Errorf("sensitivity at t=2 = %g, want deaf", s)
	}
}

func TestSpeakerDecayAndDetune(t *testing.T) {
	r := newTestRoom()
	sp := r.AddSpeaker("sw1", Position{1, 0})
	mic := r.AddMicrophone("ctl", Position{0, 0}, 0)
	sp.ScheduleAmplitudeDecay(1, 2, 0.5)
	sp.ScheduleDetune(1, 2, 1.05)

	sp.Play(0.1, audio.Tone{Frequency: 700, Duration: 0.1, Amplitude: 0.5})
	sp.Play(3.1, audio.Tone{Frequency: 700, Duration: 0.1, Amplitude: 0.5})

	healthy := mic.Capture(0.15, 0.2)
	if peak := healthy.Peak(); math.Abs(peak-0.5) > 0.05 {
		t.Errorf("healthy peak = %g, want ~0.5", peak)
	}
	aged := mic.Capture(3.15, 3.2)
	if peak := aged.Peak(); math.Abs(peak-0.25) > 0.05 {
		t.Errorf("decayed peak = %g, want ~0.25", peak)
	}
	// The detuned tone lands at 735 Hz, not the commanded 700.
	if g := dsp.Goertzel(aged.Samples, 735, r.SampleRate); g < 50 {
		t.Errorf("detuned tone not at 735 Hz: goertzel = %g", g)
	}
	at700 := dsp.Goertzel(aged.Samples, 700, r.SampleRate)
	at735 := dsp.Goertzel(aged.Samples, 735, r.SampleRate)
	if at700 > at735 {
		t.Errorf("700 Hz (%g) louder than 735 Hz (%g) after detune", at700, at735)
	}
}

// TestDegradedCaptureDeterministic pins the byte-identity contract:
// repeated captures of the same window through a mid-ramp degradation
// render identical waveforms.
func TestDegradedCaptureDeterministic(t *testing.T) {
	r := newTestRoom()
	r.CullThreshold = CullAuto
	sp := r.AddSpeaker("sw1", Position{1, 0})
	mic := r.AddMicrophone("ctl", Position{0, 0}, 0.002)
	mic.ScheduleNoiseRamp(0.5, 2, 0.05)
	mic.ScheduleSensitivityRamp(0.5, 2, 0.3)
	sp.ScheduleDetune(0.5, 2, 1.03)
	sp.Play(1.0, audio.Tone{Frequency: 700, Duration: 0.1, Amplitude: 0.5})

	a := mic.Capture(1.0, 1.05)
	b := mic.Capture(1.0, 1.05)
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d diverged: %g vs %g", i, a.Samples[i], b.Samples[i])
		}
	}
}

// TestCullFloorTracksNoiseRamp: under CullAuto, a tone above the
// original floor but below the ramped floor is culled once the ramp
// lands — the audibility floor recalibrates with the hardware.
func TestCullFloorTracksNoiseRamp(t *testing.T) {
	r := newTestRoom()
	r.CullThreshold = CullAuto
	sp := r.AddSpeaker("sw1", Position{1, 0})
	mic := r.AddMicrophone("ctl", Position{0, 0}, 0.0001)
	mic.ScheduleNoiseRamp(1, 1.5, 0.05)

	// Received amplitude at 1 m is ~0.01: above 0.0001, below 0.05.
	sp.Play(0.1, audio.Tone{Frequency: 700, Duration: 0.1, Amplitude: 0.01})
	sp.Play(2.1, audio.Tone{Frequency: 700, Duration: 0.1, Amplitude: 0.01})

	early := mic.Capture(0.15, 0.2)
	if g := dsp.Goertzel(early.Samples, 700, r.SampleRate); g < 1 {
		t.Errorf("tone culled before the ramp: goertzel = %g", g)
	}
	// The culled window is pure self-noise; its Goertzel magnitude at
	// 700 Hz is noise leakage (~2.5 at 0.05 RMS over 2205 samples),
	// well under the ~11 the tone itself would score.
	late := mic.Capture(2.15, 2.2)
	if g := dsp.Goertzel(late.Samples, 700, r.SampleRate); g > 6 {
		t.Errorf("tone survived a floor it sits under: goertzel = %g", g)
	}
}

func TestRoomMicrophoneAccessors(t *testing.T) {
	r := newTestRoom()
	r.AddMicrophone("a", Position{0, 0}, 0.001)
	r.AddMicrophone("b", Position{1, 0}, 0.002)
	if m := r.Microphone("a"); m == nil || m.Name != "a" {
		t.Fatalf("Microphone(a) = %v", m)
	}
	if m := r.Microphone("zzz"); m != nil {
		t.Fatalf("Microphone(zzz) = %v, want nil", m)
	}
}
