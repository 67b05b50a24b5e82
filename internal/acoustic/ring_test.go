package acoustic

import (
	"errors"
	"testing"

	"mdn/internal/audio"
)

const (
	ringWindowN = 2205 // 50 ms at 44.1 kHz
	ringHopN    = 441  // 10 ms
	ringHop     = ringHopN / 44100.0
)

// ringRoom is a room with one noisy microphone and a tone sounding
// through the span the ring tests append, so every sample differs.
func ringRoom() (*Room, *Microphone) {
	r := NewRoom(44100, 3)
	sp := r.AddSpeaker("s", Position{X: 1})
	sp.Play(0.005, audio.Tone{Frequency: 1017, Duration: 1, Amplitude: SPLToAmplitude(60)})
	return r, r.AddMicrophone("m", Position{}, 0.0005)
}

// appendHop appends hop k, [k·hop, (k+1)·hop), to c.
func appendHop(c *CaptureRing, k int) error {
	return c.Append(float64(k)*ringHop, float64(k+1)*ringHop)
}

// TestCaptureRingWindowIsLastHops: once full, the window is the
// concatenation of the last windowN/hopN hop captures, oldest first —
// including after the write index has wrapped.
func TestCaptureRingWindowIsLastHops(t *testing.T) {
	_, mic := ringRoom()
	c := NewCaptureRing(mic, ringWindowN)
	var hops [][]float64
	const perWindow = ringWindowN / ringHopN
	for k := 0; k < 3*perWindow+2; k++ {
		if err := appendHop(c, k); err != nil {
			t.Fatal(err)
		}
		hops = append(hops, append([]float64(nil), c.LastHop()...))
		if full := k+1 >= perWindow; c.Full() != full {
			t.Fatalf("hop %d: Full() = %v, want %v", k, c.Full(), full)
		}
		if !c.Full() {
			continue
		}
		var want []float64
		for _, h := range hops[len(hops)-perWindow:] {
			want = append(want, h...)
		}
		got := c.Window().Samples
		if len(got) != len(want) {
			t.Fatalf("hop %d: window holds %d samples, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("hop %d sample %d: window %v, want %v", k, i, got[i], want[i])
			}
		}
	}
}

// TestCaptureRingAppendBehindHorizonLeavesRing: an append over a
// compacted span fails with ErrCompacted and leaves the window and the
// last hop untouched.
func TestCaptureRingAppendBehindHorizonLeavesRing(t *testing.T) {
	r, mic := ringRoom()
	c := NewCaptureRing(mic, ringWindowN)
	for k := 0; k < 6; k++ {
		if err := appendHop(c, k); err != nil {
			t.Fatal(err)
		}
	}
	window := append([]float64(nil), c.Window().Samples...)
	last := append([]float64(nil), c.LastHop()...)
	r.CompactBefore(7 * ringHop)
	if err := appendHop(c, 6); !errors.Is(err, ErrCompacted) {
		t.Fatalf("append behind the horizon = %v, want ErrCompacted", err)
	}
	for i, x := range c.Window().Samples {
		if x != window[i] {
			t.Fatalf("window sample %d changed: %v -> %v", i, window[i], x)
		}
	}
	for i, x := range c.LastHop() {
		if x != last[i] {
			t.Fatalf("last hop sample %d changed: %v -> %v", i, last[i], x)
		}
	}
}

func TestCaptureRingWindowAllocs(t *testing.T) {
	_, mic := ringRoom()
	c := NewCaptureRing(mic, ringWindowN)
	for k := 0; k < 5; k++ {
		if err := appendHop(c, k); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, func() { c.Window() }); got != 0 {
		t.Errorf("Window allocates %g/op, want 0", got)
	}
}
