package mp

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"mdn/internal/acoustic"
	"mdn/internal/netsim"
)

// Regression: Close before (or racing) Serve used to miss the
// listener, leaving Serve accepting forever.
func TestServerCloseBeforeServe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve after Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after prior Close")
	}
	// Serve must have closed the listener it could never serve.
	if _, err := ln.Accept(); err == nil {
		t.Error("listener still accepting after Serve returned")
	}
}

func TestServerCloseServeRace(t *testing.T) {
	for i := 0; i < 20; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := &Server{}
		done := make(chan error, 1)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
		go func() { done <- s.Serve(ln) }()
		wg.Wait()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("iteration %d: Serve = %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: Serve hung after racing Close", i)
		}
		ln.Close()
	}
}

func TestUnmarshalStrictness(t *testing.T) {
	good := Marshal(Message{Frequency: 440, Duration: 0.1, Intensity: 60})
	long := append(append([]byte(nil), good...), 0x00)
	if _, err := Unmarshal(long); !errors.Is(err, ErrBadMessage) {
		t.Errorf("trailing byte accepted: %v", err)
	}
	reserved := append([]byte(nil), good...)
	reserved[3] = 1
	if _, err := Unmarshal(reserved); !errors.Is(err, ErrBadMessage) {
		t.Errorf("reserved byte accepted: %v", err)
	}
}

func TestRandomizedMessageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		in := Message{
			Frequency: rng.Float64() * 22050,
			Duration:  rng.Float64() * 60,
			Intensity: rng.Float64() * 120,
		}
		out, err := Unmarshal(Marshal(in))
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if out != in {
			t.Fatalf("message %d: got %+v want %+v", i, out, in)
		}
	}
}

func faultBed(t *testing.T) (*netsim.Sim, *Pi) {
	t.Helper()
	sim := netsim.NewSim()
	room := acoustic.NewRoom(44100, 1)
	spk := room.AddSpeaker("pi", acoustic.Position{X: 1})
	return sim, NewPi(sim, spk, 0.001)
}

func TestSounderFaultInjection(t *testing.T) {
	sim, pi := faultBed(t)
	snd := NewSounder(pi)
	inj := snd.InjectFaults(netsim.Faults{DropProb: 0.25, FlipProb: 0.25, TruncProb: 0.1, JitterMax: 0.02, Seed: 3})
	const sends = 400
	for i := 0; i < sends; i++ {
		snd.Emit(Message{Frequency: 440 + float64(i), Duration: 0.05, Intensity: 60})
	}
	sim.Run()
	if snd.Dropped == 0 || snd.Corrupted == 0 {
		t.Errorf("faults not exercised: dropped=%d corrupted=%d", snd.Dropped, snd.Corrupted)
	}
	if pi.Played == 0 {
		t.Error("no message survived the faulty hop")
	}
	// A flipped bit can also surface as a Validate failure at the Pi
	// (counted in Rejected); every sent message lands in exactly one
	// bucket.
	if got := snd.Dropped + snd.Corrupted + pi.Played + pi.Rejected; got != sends {
		t.Errorf("accounting: %d dropped + %d corrupted + %d played + %d rejected = %d, want %d",
			snd.Dropped, snd.Corrupted, pi.Played, pi.Rejected, got, sends)
	}
	if inj.Dropped != snd.Dropped {
		t.Errorf("injector dropped %d, sounder %d", inj.Dropped, snd.Dropped)
	}
	// Same seed, same faults: deterministic replay.
	sim2, pi2 := faultBed(t)
	snd2 := NewSounder(pi2)
	snd2.InjectFaults(netsim.Faults{DropProb: 0.25, FlipProb: 0.25, TruncProb: 0.1, JitterMax: 0.02, Seed: 3})
	for i := 0; i < sends; i++ {
		snd2.Emit(Message{Frequency: 440 + float64(i), Duration: 0.05, Intensity: 60})
	}
	sim2.Run()
	if snd2.Dropped != snd.Dropped || snd2.Corrupted != snd.Corrupted || pi2.Played != pi.Played {
		t.Error("same seed diverged across runs")
	}
}

// Emit with unencodable fields must count-and-drop, never panic (it
// used to panic on the round-trip failure).
func TestSounderNaNDoesNotPanic(t *testing.T) {
	_, pi := faultBed(t)
	snd := NewSounder(pi)
	snd.Emit(Message{Frequency: nan(), Duration: 0.05, Intensity: 60})
	if snd.Corrupted != 1 {
		t.Errorf("Corrupted = %d, want 1", snd.Corrupted)
	}
	if pi.Played != 0 {
		t.Error("NaN message played")
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}
