package mp

import (
	"math"
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/dsp"
	"mdn/internal/netsim"
)

func TestPiPlaysIntoRoom(t *testing.T) {
	sim := netsim.NewSim()
	room := acoustic.NewRoom(44100, 1)
	sp := room.AddSpeaker("pi-1", acoustic.Position{X: 1})
	mic := room.AddMicrophone("ctl", acoustic.Position{}, 0)
	pi := NewPi(sim, sp, 0.002)

	sim.Schedule(1.0, func() {
		pi.HandleAfter(Message{Frequency: 700, Duration: 0.1, Intensity: 70}, 0)
	})
	sim.Run()

	if pi.Played != 1 || pi.Rejected != 0 {
		t.Fatalf("played=%d rejected=%d", pi.Played, pi.Rejected)
	}
	// Tone starts at 1.002 plus ~2.9 ms propagation; listen over a
	// window containing it.
	buf := mic.Capture(1.0, 1.2)
	if g := dsp.Goertzel(buf.Samples, 700, 44100); g < 1 {
		t.Errorf("tone not heard: %g", g)
	}
	// Amplitude: 70 dB SPL => 10^((70-90)/20) = 0.1 at 1 m.
	peak := buf.Peak()
	if math.Abs(peak-0.1) > 0.02 {
		t.Errorf("peak = %g, want ~0.1 for 70 dB at 1 m", peak)
	}
	// The first sound reaches the microphone LinkDelay plus 1 m of
	// flight after the message.
	arrive := 1.002 + 1/acoustic.SpeedOfSound
	first := 0
	for first < buf.Len() && buf.Samples[first] == 0 {
		first++
	}
	if at := 1.0 + float64(first)/44100; at < arrive || at > arrive+0.001 {
		t.Errorf("first sound at %.5f s, want %.5f s", at, arrive)
	}
	if n := room.EmissionCount(); n != 1 {
		t.Errorf("emissions = %d, want 1", n)
	}
}

func TestPiRejectsInvalid(t *testing.T) {
	sim := netsim.NewSim()
	room := acoustic.NewRoom(44100, 1)
	sp := room.AddSpeaker("pi-1", acoustic.Position{X: 1})
	pi := NewPi(sim, sp, 0)
	pi.HandleAfter(Message{Frequency: -4, Duration: 0.1, Intensity: 70}, 0)
	if pi.Played != 0 || pi.Rejected != 1 {
		t.Errorf("played=%d rejected=%d", pi.Played, pi.Rejected)
	}
	if room.EmissionCount() != 0 {
		t.Error("invalid message produced an emission")
	}
}

func TestSounderWirePath(t *testing.T) {
	sim := netsim.NewSim()
	room := acoustic.NewRoom(44100, 1)
	sp := room.AddSpeaker("pi-1", acoustic.Position{X: 1})
	pi := NewPi(sim, sp, 0.001)
	snd := NewSounder(pi)
	snd.Emit(Message{Frequency: 500, Duration: 0.05, Intensity: 60})
	snd.Emit(Message{Frequency: 600, Duration: 0.05, Intensity: 60})
	if snd.SentBytes != 2*WireSize {
		t.Errorf("sent bytes = %d", snd.SentBytes)
	}
	if pi.Played != 2 {
		t.Errorf("played = %d", pi.Played)
	}
	if n := room.EmissionCount(); n != 2 {
		t.Errorf("emissions = %d", n)
	}
}
