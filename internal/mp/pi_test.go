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
		pi.Handle(Message{Frequency: 700, Duration: 0.1, Intensity: 70})
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
	em := room.Emissions()
	if len(em) != 1 || math.Abs(em[0].At-1.002) > 1e-9 {
		t.Errorf("emission = %+v", em)
	}
}

func TestPiRejectsInvalid(t *testing.T) {
	sim := netsim.NewSim()
	room := acoustic.NewRoom(44100, 1)
	sp := room.AddSpeaker("pi-1", acoustic.Position{X: 1})
	pi := NewPi(sim, sp, 0)
	pi.Handle(Message{Frequency: -4, Duration: 0.1, Intensity: 70})
	if pi.Played != 0 || pi.Rejected != 1 {
		t.Errorf("played=%d rejected=%d", pi.Played, pi.Rejected)
	}
	if len(room.Emissions()) != 0 {
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
	if len(room.Emissions()) != 2 {
		t.Errorf("emissions = %d", len(room.Emissions()))
	}
}
