package core

import (
	"math"
	"testing"

	"mdn/internal/audio"
)

func toneBuf(freq, dur, amp float64) *audio.Buffer {
	return audio.Tone{Frequency: freq, Duration: dur, Amplitude: amp}.Render(44100)
}

func TestDetectorGoertzelFindsTone(t *testing.T) {
	det := NewDetector(MethodGoertzel, []float64{500, 700, 900})
	buf := toneBuf(700, 0.05, 0.05)
	got := det.Detect(buf, 3.25)
	if len(got) != 1 {
		t.Fatalf("detections = %+v", got)
	}
	d := got[0]
	if d.Frequency != 700 || d.Time != 3.25 {
		t.Errorf("detection = %+v", d)
	}
	// Envelope shaves a little amplitude; expect within 25%.
	if d.Amplitude < 0.035 || d.Amplitude > 0.055 {
		t.Errorf("amplitude = %g, want ~0.05", d.Amplitude)
	}
}

// TestDetectorGoertzelSteadyStateAllocs gates the Goertzel detector at
// the modem's width, a 130-tone bank over a 50 ms window, at 0
// allocations per window once its plan and scratch exist.
func TestDetectorGoertzelSteadyStateAllocs(t *testing.T) {
	watch, err := NewFrequencyPlan(400, 11000, DefaultSpacing).AllocateSpaced("bank", 130, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetector(MethodGoertzel, watch)
	buf := noisyWindow(2205, 9, watch[0], watch[64], watch[129])
	if dets, _ := d.DetectCalibrated(buf, 0, d.MinAmplitude); len(dets) == 0 { // warm up plan and scratch
		t.Fatal("no tone detected")
	}
	if allocs := testing.AllocsPerRun(100, func() { d.DetectCalibrated(buf, 0, d.MinAmplitude) }); allocs != 0 {
		t.Errorf("130-tone Goertzel DetectCalibrated allocates %.1f objects/window, want 0", allocs)
	}
}

func TestDetectorFFTFindsTone(t *testing.T) {
	det := NewDetector(MethodFFT, []float64{500, 700, 900})
	buf := toneBuf(700, 0.05, 0.05)
	got := det.Detect(buf, 0)
	if len(got) != 1 || got[0].Frequency != 700 {
		t.Fatalf("detections = %+v", got)
	}
	if got[0].Amplitude < 0.02 || got[0].Amplitude > 0.08 {
		t.Errorf("amplitude = %g, want ~0.05", got[0].Amplitude)
	}
}

func TestDetectorBothMethodsAgreeOnMultiTone(t *testing.T) {
	watch := []float64{500, 600, 700, 800}
	mix := audio.Chord(44100,
		audio.Tone{Frequency: 500, Duration: 0.05, Amplitude: 0.03},
		audio.Tone{Frequency: 800, Duration: 0.05, Amplitude: 0.03},
	)
	for _, m := range []Method{MethodGoertzel, MethodFFT} {
		det := NewDetector(m, watch)
		got := det.Detect(mix, 0)
		if len(got) != 2 {
			t.Fatalf("%v: detections = %+v", m, got)
		}
		if got[0].Frequency != 500 || got[1].Frequency != 800 {
			t.Errorf("%v: frequencies = %g %g", m, got[0].Frequency, got[1].Frequency)
		}
	}
}

func TestDetectorRejectsQuietTone(t *testing.T) {
	det := NewDetector(MethodGoertzel, []float64{700})
	buf := toneBuf(700, 0.05, DefaultMinAmplitude/10)
	if got := det.Detect(buf, 0); len(got) != 0 {
		t.Errorf("sub-threshold tone detected: %+v", got)
	}
}

func TestDetectorRejectsNoise(t *testing.T) {
	watch := []float64{500, 600, 700, 800, 900}
	noise := audio.WhiteNoise(44100, 0.05, 0.001, 77) // mic-floor level
	for _, m := range []Method{MethodGoertzel, MethodFFT} {
		det := NewDetector(m, watch)
		if got := det.Detect(noise, 0); len(got) != 0 {
			t.Errorf("%v: noise produced detections: %+v", m, got)
		}
	}
}

func TestDetectorAdjacentFrequencyIsolation(t *testing.T) {
	// A tone at 700 Hz must not trigger the 720 Hz watcher at 20 Hz
	// spacing (the paper's spacing claim) with a 50 ms window ...
	det := NewDetector(MethodGoertzel, []float64{700, 720})
	buf := toneBuf(700, 0.05, 0.03)
	got := det.Detect(buf, 0)
	for _, d := range got {
		if d.Frequency == 700 {
			continue
		}
		// Leakage may appear but must be far weaker than the tone.
		if d.Amplitude > 0.015 {
			t.Errorf("adjacent leak too strong: %+v", d)
		}
	}
}

func TestDetectorEmptyInputs(t *testing.T) {
	det := NewDetector(MethodGoertzel, nil)
	if det.Detect(toneBuf(700, 0.05, 0.1), 0) != nil {
		t.Error("no watch list should give nil")
	}
	det2 := NewDetector(MethodGoertzel, []float64{700})
	if det2.Detect(nil, 0) != nil {
		t.Error("nil buffer should give nil")
	}
	if det2.Detect(audio.NewBuffer(44100, 0), 0) != nil {
		t.Error("empty buffer should give nil")
	}
}

func TestDetectorWatchManagement(t *testing.T) {
	det := NewDetector(MethodFFT, []float64{500})
	det.AddWatch(600, 700)
	w := det.Watch()
	if len(w) != 3 || w[2] != 700 {
		t.Errorf("watch = %v", w)
	}
	// Returned slice is a copy.
	w[0] = 1
	if det.Watch()[0] != 500 {
		t.Error("Watch leaked internal state")
	}
}

func TestDetectorFFTToleranceCatchesOffBinTone(t *testing.T) {
	det := NewDetector(MethodFFT, []float64{707}) // watch off-tone
	det.ToleranceHz = 10
	buf := toneBuf(700, 0.05, 0.05)
	if got := det.Detect(buf, 0); len(got) != 1 {
		t.Errorf("tolerant FFT watcher missed nearby tone: %+v", got)
	}
}

func TestMethodString(t *testing.T) {
	if MethodGoertzel.String() != "goertzel" || MethodFFT.String() != "fft" || Method(9).String() != "unknown" {
		t.Error("method names wrong")
	}
}

func TestOnsetFilterConfirmedEdges(t *testing.T) {
	o := NewOnsetFilter() // 2-window confirmation, 1-window re-arm
	d700 := Detection{Frequency: 700, Amplitude: 0.1}
	// Window 1: tone appears -> unconfirmed, no onset yet.
	if got := o.Step([]Detection{d700}); len(got) != 0 {
		t.Fatalf("w1 = %+v", got)
	}
	// Window 2: still present -> confirmed onset.
	if got := o.Step([]Detection{d700}); len(got) != 1 {
		t.Fatalf("w2 = %+v", got)
	}
	// Window 3: still present -> no re-fire.
	if got := o.Step([]Detection{d700}); len(got) != 0 {
		t.Fatalf("w3 = %+v", got)
	}
	// Window 4: silence -> re-arm.
	if got := o.Step(nil); len(got) != 0 {
		t.Fatalf("w4 = %+v", got)
	}
	// Windows 5-6: tone again -> confirmed onset at window 6.
	if got := o.Step([]Detection{d700}); len(got) != 0 {
		t.Fatalf("w5 = %+v", got)
	}
	if got := o.Step([]Detection{d700}); len(got) != 1 {
		t.Fatalf("w6 = %+v", got)
	}
}

func TestOnsetFilterRejectsOneWindowBlip(t *testing.T) {
	// Tone-onset splatter shows up in exactly one window; a
	// confirmed filter must ignore it.
	o := NewOnsetFilter()
	blip := Detection{Frequency: 480}
	if got := o.Step([]Detection{blip}); len(got) != 0 {
		t.Fatalf("blip fired: %+v", got)
	}
	if got := o.Step(nil); len(got) != 0 {
		t.Fatalf("silence fired: %+v", got)
	}
	// The streak must have reset: another single blip still no fire.
	if got := o.Step([]Detection{blip}); len(got) != 0 {
		t.Fatalf("second blip fired: %+v", got)
	}
}

func TestOnsetFilterHoldWindows(t *testing.T) {
	o := NewOnsetFilter()
	o.ConfirmWindows = 1 // isolate hold behaviour
	o.HoldWindows = 3
	d := Detection{Frequency: 500}
	if got := o.Step([]Detection{d}); len(got) != 1 {
		t.Fatal("first presence should fire with 1-window confirm")
	}
	o.Step(nil) // 1 silent window: not yet re-armed
	o.Step(nil) // 2 silent windows: not yet
	if got := o.Step([]Detection{d}); len(got) != 0 {
		t.Errorf("re-armed too early: %+v", got)
	}
	o.Step(nil)
	o.Step(nil)
	o.Step(nil)
	if got := o.Step([]Detection{d}); len(got) != 1 {
		t.Errorf("should re-arm after 3 silent windows: %+v", got)
	}
}

func TestOnsetFilterIndependentFrequencies(t *testing.T) {
	o := NewOnsetFilter()
	a := Detection{Frequency: 500}
	b := Detection{Frequency: 600}
	o.Step([]Detection{a, b})
	if got := o.Step([]Detection{a, b}); len(got) != 2 {
		t.Fatalf("both should confirm: %+v", got)
	}
	// a continues, b goes silent then returns for two windows: only
	// b re-fires.
	o.Step([]Detection{a})
	o.Step([]Detection{a, b})
	got := o.Step([]Detection{a, b})
	if len(got) != 1 || got[0].Frequency != 600 {
		t.Fatalf("got %+v, want only 600", got)
	}
}

func TestDetectorAmplitudeAccuracy(t *testing.T) {
	// Amplitude estimates should track the true amplitude within
	// ~30% across a range (envelope costs a bit).
	for _, amp := range []float64{0.001, 0.01, 0.1} {
		det := NewDetector(MethodGoertzel, []float64{1000})
		got := det.Detect(toneBuf(1000, 0.1, amp), 0)
		if len(got) != 1 {
			t.Fatalf("amp %g not detected", amp)
		}
		if math.Abs(got[0].Amplitude-amp)/amp > 0.3 {
			t.Errorf("estimated %g for true %g", got[0].Amplitude, amp)
		}
	}
}
