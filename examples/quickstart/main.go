// Quickstart: stand up a minimal Music-Defined Network — one voiced
// switch, one controller — and watch a tone cross the air gap.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"mdn"
)

func main() {
	// A world with one switch 1.5 m from the controller's microphone,
	// its speaker driven through a simulated Raspberry Pi speaking the
	// Music Protocol. No apps: the tones below are our own.
	w, err := mdn.Build(&mdn.Config{
		Name: "quickstart", Seed: 42, DurationS: 2.5,
		Switches: []mdn.SwitchConfig{{Name: "s1", X: 1.5}},
	})
	if err != nil {
		panic(err)
	}

	// Give the switch three frequencies, 20 Hz-spaced plan slots
	// with guard bands for same-window separability.
	freqs, err := mdn.NewFrequencyPlan(400, 8000, 20).AllocateSpaced("s1", 3, mdn.DefaultStride)
	if err != nil {
		panic(err)
	}
	fmt.Printf("switch s1 assigned frequencies: %v Hz\n", freqs)

	// The controller polls its microphone in 50 ms windows.
	ctrl := w.Controller()
	ctrl.Detector.AddWatch(freqs...)
	onset := mdn.NewOnsetFilter()
	ctrl.SubscribeWindows(func(_ float64, dets []mdn.Detection) {
		for _, d := range onset.Step(dets) {
			fmt.Printf("t=%.3fs  controller heard %.0f Hz (amplitude %.4f)\n",
				d.Time, d.Frequency, d.Amplitude)
		}
	})

	// The switch plays its three tones, half a second apart.
	voice := w.Voice("s1")
	for i, f := range freqs {
		f := f
		w.Sim.Schedule(0.5+float64(0.5*float64(i)), func() {
			fmt.Printf("t=%.3fs  switch s1 plays %.0f Hz\n", w.Sim.Now(), f)
			voice.Play(f)
		})
	}

	if _, err := w.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("\ncontroller analysed %d windows, %d raw detections\n",
		ctrl.Windows, ctrl.Detections)
}
