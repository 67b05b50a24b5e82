package mdn_test

import (
	"fmt"

	"mdn"
	"mdn/internal/core"
)

// The smallest possible Music-Defined Network: one voiced switch, one
// listening controller, one tone.
func Example() {
	w, err := mdn.Build(&mdn.Config{
		Name: "example", Seed: 42, DurationS: 1,
		Switches: []mdn.SwitchConfig{{Name: "s1", X: 1.5}},
	})
	if err != nil {
		panic(err)
	}
	freqs := mdn.NewFrequencyPlan(400, 8000, 20).MustAllocate("s1", 1)

	ctrl := w.Controller()
	ctrl.Detector.AddWatch(freqs...)
	onset := mdn.NewOnsetFilter()
	ctrl.SubscribeWindows(func(_ float64, dets []mdn.Detection) {
		for _, d := range onset.Step(dets) {
			fmt.Printf("heard %.0f Hz\n", d.Frequency)
		}
	})

	voice := w.Voice("s1")
	w.Sim.Schedule(0.5, func() { voice.Play(freqs[0]) })
	if _, err := w.Run(); err != nil {
		panic(err)
	}
	// Output: heard 400 Hz
}

// A shipped scenario runs through the same builder as a hand-written
// Config: the Section 4 knock opens the port.
func ExampleLoad() {
	cfg, err := mdn.Load("portknock.json")
	if err != nil {
		panic(err)
	}
	w, err := mdn.Build(cfg)
	if err != nil {
		panic(err)
	}
	if _, err := w.Run(); err != nil {
		panic(err)
	}
	pk := w.Apps[0].(*core.PortKnock)
	fmt.Printf("port opened at t=%.2fs, rule installed at t=%.3fs\n", pk.OpenedAt, pk.InstalledAt)
	// Output: port opened at t=11.10s, rule installed at t=11.105s
}

// Frequency plans give every device a disjoint tone set and map
// observed frequencies back to their owner.
func ExampleFrequencyPlan() {
	plan := mdn.NewFrequencyPlan(400, 4000, 20)
	s1, _ := plan.Allocate("switch-1", 3)
	s2, _ := plan.Allocate("switch-2", 3)
	fmt.Println(s1, s2)

	device, index, ok := plan.Identify(467, plan.DefaultTolerance())
	fmt.Println(device, index, ok)
	// Output:
	// [400 420 440] [460 480 500]
	// switch-2 0 true
}

// SequenceFSM is the paper's Section 4 state machine: it accepts
// exactly one symbol sequence.
func ExampleSequenceFSM() {
	fsm := mdn.SequenceFSM([]string{"knock-a", "knock-b"})
	fsm.OnAccept = func() { fmt.Println("open the port") }
	fsm.Step("knock-b") // wrong first knock
	fsm.Step("knock-a")
	fsm.Step("knock-b")
	fmt.Println("resets:", fsm.Resets)
	// Output:
	// open the port
	// resets: 1
}

// The onset filter turns per-window tone presence into counted tone
// events, rejecting one-window spectral splatter.
func ExampleOnsetFilter() {
	o := mdn.NewOnsetFilter()
	tone := mdn.Detection{Frequency: 700}
	fmt.Println(len(o.Step([]mdn.Detection{tone}))) // first window: unconfirmed
	fmt.Println(len(o.Step([]mdn.Detection{tone}))) // second window: onset
	fmt.Println(len(o.Step([]mdn.Detection{tone}))) // still on: no re-fire
	// Output:
	// 0
	// 1
	// 0
}
