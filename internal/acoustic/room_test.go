package acoustic

import (
	"math"
	"testing"

	"mdn/internal/audio"
	"mdn/internal/dsp"
)

func TestSPLCalibration(t *testing.T) {
	if a := SPLToAmplitude(90); math.Abs(a-1) > 1e-12 {
		t.Errorf("90 dB -> %g, want 1", a)
	}
	if a := SPLToAmplitude(30); math.Abs(a-1e-3) > 1e-15 {
		t.Errorf("30 dB -> %g, want 1e-3", a)
	}
}

func TestPositionDistance(t *testing.T) {
	p := Position{0, 0}
	q := Position{3, 4}
	if d := p.Distance(q); d != 5 {
		t.Errorf("distance = %g, want 5", d)
	}
	if d := p.Distance(p); d != 0 {
		t.Errorf("self distance = %g", d)
	}
}

func newTestRoom() *Room { return NewRoom(44100, 42) }

func TestRoomCaptureSingleTone(t *testing.T) {
	r := newTestRoom()
	sp := r.AddSpeaker("sw1", Position{1, 0})
	mic := r.AddMicrophone("ctl", Position{0, 0}, 0)
	sp.Play(0.1, audio.Tone{Frequency: 700, Duration: 0.2, Amplitude: 0.5})

	buf := mic.Capture(0, 0.5)
	if buf.Len() != 22050 {
		t.Fatalf("len = %d", buf.Len())
	}
	// Before arrival: silence. Distance 1 m => ~2.9 ms delay.
	pre := audio.Buffer{SampleRate: buf.SampleRate, Samples: buf.Samples[:3969]}
	if pre.RMS() > 1e-9 {
		t.Errorf("pre-tone rms = %g, want 0", pre.RMS())
	}
	// During the tone, 700 Hz dominates. At 1 m attenuation is 1.
	mid := audio.Buffer{SampleRate: buf.SampleRate, Samples: buf.Samples[6615:11025]}
	if g := dsp.Goertzel(mid.Samples, 700, 44100); g < 100 {
		t.Errorf("tone not heard: goertzel = %g", g)
	}
	peak := mid.Peak()
	if math.Abs(peak-0.5) > 0.05 {
		t.Errorf("peak = %g, want ~0.5 at 1 m", peak)
	}
}

func TestRoomAttenuationWithDistance(t *testing.T) {
	r := newTestRoom()
	near := r.AddSpeaker("near", Position{1, 0})
	far := r.AddSpeaker("far", Position{4, 0})
	mic := r.AddMicrophone("ctl", Position{0, 0}, 0)
	near.Play(0, audio.Tone{Frequency: 500, Duration: 0.3, Amplitude: 0.4})
	far.Play(0, audio.Tone{Frequency: 900, Duration: 0.3, Amplitude: 0.4})

	buf := mic.Capture(0.1, 0.25)
	gNear := dsp.Goertzel(buf.Samples, 500, 44100)
	gFar := dsp.Goertzel(buf.Samples, 900, 44100)
	ratio := gNear / gFar
	if math.Abs(ratio-4) > 0.5 {
		t.Errorf("attenuation ratio = %g, want ~4 (1/r law)", ratio)
	}
}

func TestRoomPropagationDelay(t *testing.T) {
	r := newTestRoom()
	sp := r.AddSpeaker("sw", Position{34.3, 0}) // exactly 0.1 s away
	mic := r.AddMicrophone("ctl", Position{0, 0}, 0)
	sp.Play(0, audio.Tone{Frequency: 1000, Duration: 0.05, Amplitude: 1})

	early := mic.Capture(0.0, 0.09)
	if early.RMS() > 1e-9 {
		t.Error("tone audible before propagation delay")
	}
	during := mic.Capture(0.1, 0.15)
	if during.RMS() < 1e-4 {
		t.Error("tone not audible after propagation delay")
	}
}

func TestRoomNoiseSourceWindowed(t *testing.T) {
	r := newTestRoom()
	mic := r.AddMicrophone("ctl", Position{0, 0}, 0)
	loop := audio.WhiteNoise(44100, 0.5, 0.3, 7)
	r.AddNoise(&NoiseSource{
		Name: "amb", Pos: Position{1, 0}, Loop: loop,
		From: 1.0, Until: 2.0,
	})
	if rms := mic.Capture(0.2, 0.8).RMS(); rms > 1e-9 {
		t.Errorf("noise audible before From: %g", rms)
	}
	if rms := mic.Capture(1.2, 1.8).RMS(); math.Abs(rms-0.3) > 0.05 {
		t.Errorf("noise rms = %g, want ~0.3 during window", rms)
	}
	if rms := mic.Capture(2.2, 2.8).RMS(); rms > 1e-9 {
		t.Errorf("noise audible after Until: %g", rms)
	}
}

func TestRoomNoiseLoops(t *testing.T) {
	r := newTestRoom()
	mic := r.AddMicrophone("ctl", Position{0.5, 0}, 0)
	loop := audio.WhiteNoise(44100, 0.25, 0.2, 9)
	r.AddNoise(&NoiseSource{Name: "amb", Pos: Position{0.5, 1}, Loop: loop})
	// Way past the loop length the source must still be audible.
	if rms := mic.Capture(10, 10.5).RMS(); rms < 0.05 {
		t.Errorf("looped noise rms = %g, should persist", rms)
	}
}

func TestRoomAddNoiseRejectsEmpty(t *testing.T) {
	r := newTestRoom()
	if r.AddNoise(nil) != nil {
		t.Error("nil noise should be rejected")
	}
	if r.AddNoise(&NoiseSource{Loop: audio.NewBuffer(44100, 0)}) != nil {
		t.Error("empty loop should be rejected")
	}
}

func TestRoomMicSelfNoiseDeterministic(t *testing.T) {
	r := newTestRoom()
	mic := r.AddMicrophone("ctl", Position{0, 0}, 0.01)
	a := mic.Capture(1, 1.1)
	b := mic.Capture(1, 1.1)
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("same-window capture not reproducible")
		}
	}
	if math.Abs(a.RMS()-0.01) > 0.003 {
		t.Errorf("self noise rms = %g, want ~0.01", a.RMS())
	}
}

func TestRoomDuplicateNamesPanic(t *testing.T) {
	r := newTestRoom()
	r.AddSpeaker("x", Position{})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate speaker should panic")
			}
		}()
		r.AddSpeaker("x", Position{})
	}()
	r.AddMicrophone("m", Position{}, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate microphone should panic")
			}
		}()
		r.AddMicrophone("m", Position{}, 0)
	}()
}

func TestRoomEmissionsSorted(t *testing.T) {
	r := newTestRoom()
	sp := r.AddSpeaker("sw", Position{1, 0})
	sp.Play(2, audio.Tone{Frequency: 500, Duration: 0.1, Amplitude: 1})
	sp.Play(1, audio.Tone{Frequency: 600, Duration: 0.1, Amplitude: 1})
	em := r.emissions
	if len(em) != 2 || em[0].At != 1 || em[1].At != 2 {
		t.Errorf("emissions = %+v", em)
	}
}

func TestRoomMinDistanceClamp(t *testing.T) {
	r := newTestRoom()
	sp := r.AddSpeaker("sw", Position{0, 0})
	mic := r.AddMicrophone("ctl", Position{0, 0}, 0) // co-located
	sp.Play(0, audio.Tone{Frequency: 500, Duration: 0.2, Amplitude: 0.1})
	buf := mic.Capture(0.05, 0.15)
	// Attenuation clamps at 0.1 m => gain 10.
	if p := buf.Peak(); p > 1.05 {
		t.Errorf("peak = %g, clamp failed", p)
	}
}

func TestNewRoomPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRoom(0, 1)
}

func TestRoomConcurrentPlayAndCapture(t *testing.T) {
	// The Room is shared state: speakers may be driven from multiple
	// goroutines in library use (the simulator itself is
	// single-threaded, but the public API must not race).
	r := newTestRoom()
	sp := r.AddSpeaker("sw", Position{X: 1})
	mic := r.AddMicrophone("ctl", Position{}, 0)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				sp.Play(float64(g)+float64(i)*0.01, audio.Tone{
					Frequency: 500 + float64(g)*100, Duration: 0.02, Amplitude: 0.1})
			}
		}()
	}
	for g := 0; g < 2; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 25; i++ {
				mic.Capture(0, 0.2)
				r.EmissionCount()
			}
		}()
	}
	for i := 0; i < 6; i++ {
		<-done
	}
	if n := r.EmissionCount(); n != 200 {
		t.Errorf("emissions = %d, want 200", n)
	}
}
