package core

import (
	"testing"

	"mdn/internal/acoustic"
)

// arrayBed: two zones 8 m apart, one microphone in each, two switches
// reusing the SAME frequency — only the array can attribute tones.
type arrayBed struct {
	*testbed
	micA, micB        *acoustic.Microphone
	voiceA, voiceB    *Voice
	sharedFrequency   float64
	arr               *MicArray
	heardAttributions []ArrayDetection
}

func newArrayBed(t *testing.T) *arrayBed {
	t.Helper()
	tb := newTestbed(95)
	micA := tb.room.AddMicrophone("mic-zone-a", acoustic.Position{X: -4}, 0.0003)
	micB := tb.room.AddMicrophone("mic-zone-b", acoustic.Position{X: 4}, 0.0003)
	voiceA := tb.voiceAt("zone-a-switch", acoustic.Position{X: -4.5})
	voiceB := tb.voiceAt("zone-b-switch", acoustic.Position{X: 4.5})
	shared := 700.0
	det := NewDetector(MethodGoertzel, []float64{shared})
	arr := NewMicArray(tb.sim, det, micA, micB)
	bed := &arrayBed{
		testbed: tb, micA: micA, micB: micB,
		voiceA: voiceA, voiceB: voiceB,
		sharedFrequency: shared, arr: arr,
	}
	arr.Subscribe(func(ad ArrayDetection) {
		bed.heardAttributions = append(bed.heardAttributions, ad)
	})
	return bed
}

func TestMicArrayAttributesZones(t *testing.T) {
	bed := newArrayBed(t)
	bed.arr.Start(0)
	// Zone A plays, then zone B, well separated.
	bed.sim.Schedule(0.5, func() { bed.voiceA.Play(bed.sharedFrequency) })
	bed.sim.Schedule(1.5, func() { bed.voiceB.Play(bed.sharedFrequency) })
	bed.sim.RunUntil(2.5)

	if len(bed.heardAttributions) < 2 {
		t.Fatalf("attributions = %+v", bed.heardAttributions)
	}
	// Group attributions by second.
	var earlyMics, lateMics []string
	for _, ad := range bed.heardAttributions {
		if ad.Time < 1.0 {
			earlyMics = append(earlyMics, ad.Mic)
		} else {
			lateMics = append(lateMics, ad.Mic)
		}
	}
	for _, m := range earlyMics {
		if m != "mic-zone-a" {
			t.Errorf("early tone attributed to %s, want mic-zone-a", m)
		}
	}
	for _, m := range lateMics {
		if m != "mic-zone-b" {
			t.Errorf("late tone attributed to %s, want mic-zone-b", m)
		}
	}
	if len(earlyMics) == 0 || len(lateMics) == 0 {
		t.Errorf("missing attributions: early=%v late=%v", earlyMics, lateMics)
	}
}

func TestMicArrayAmplitudeMap(t *testing.T) {
	bed := newArrayBed(t)
	bed.sim.Schedule(0.5, func() { bed.voiceA.Play(bed.sharedFrequency) })
	bed.sim.RunUntil(1)
	var got []ArrayDetection
	bed.arr.Subscribe(func(ad ArrayDetection) { got = append(got, ad) })
	bed.arr.analyse(0.5, 0.56)
	if len(got) != 1 {
		t.Fatalf("got %+v", got)
	}
	ad := got[0]
	if ad.Mic != "mic-zone-a" {
		t.Errorf("attributed to %s", ad.Mic)
	}
	// The near mic (0.5 m) must report a far larger amplitude than
	// the far one (8.5 m) — if the far one heard it at all.
	if far, ok := ad.Amplitudes["mic-zone-b"]; ok {
		if ad.Amplitudes["mic-zone-a"] < 5*far {
			t.Errorf("amplitude separation too small: %v", ad.Amplitudes)
		}
	}
	if ad.Amplitude != ad.Amplitudes["mic-zone-a"] {
		t.Error("top-level amplitude should be the attributed mic's")
	}
}

func TestMicArrayRequiresMics(t *testing.T) {
	tb := newTestbed(96)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMicArray(tb.sim, NewDetector(MethodGoertzel, nil))
}
