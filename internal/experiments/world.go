package experiments

import (
	"math"

	"mdn/internal/audio"
	"mdn/internal/scenario"
	"mdn/scenarios"
)

// world builds the named shipped scenario, after edit (when non-nil)
// adjusts its config, and returns the world with the config it was
// built from. A figure's world is fixed, so a failure to load or build
// it is a wiring error.
func world(name string, edit func(*scenario.Config)) (*scenario.World, *scenario.Config) {
	c, err := scenarios.Load(name)
	if err != nil {
		panic(err)
	}
	if edit != nil {
		edit(c)
	}
	return buildWorld(c), c
}

// buildWorld builds a figure's world from its config. A figure's
// world is fixed, so a failure to build it is a wiring error.
func buildWorld(c *scenario.Config) *scenario.World {
	w, err := scenario.Build(c)
	if err != nil {
		panic(err)
	}
	return w
}

// runWorld runs a built world to the end of its scenario.
func runWorld(w *scenario.World) {
	if _, err := w.Run(); err != nil {
		panic(err)
	}
}

// recordAudio returns what the controller microphone hears over
// [from, to), filled in while the world runs: the runner compacts
// emissions 2 s behind its window, so the span is captured in pieces
// of at most one second as each ends.
func recordAudio(w *scenario.World, from, to float64) *audio.Buffer {
	buf := &audio.Buffer{SampleRate: w.Mic.Room().SampleRate}
	for a := from; a < to; a++ {
		a, b := a, math.Min(a+1, to)
		w.Sim.Schedule(b, func() {
			buf.Samples = append(buf.Samples, w.Mic.Capture(a, b).Samples...)
		})
	}
	return buf
}
