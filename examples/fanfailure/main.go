// Server fan-failure detection (paper Section 7): a microphone 0.3 m
// from a server learns the fan's harmonic signature, then keeps
// checking it inside an ~85 dBA datacenter. When the fan dies at
// t=10 s, the amplitude drop across the blade-pass harmonics raises
// an out-of-band alert — despite the machine-room noise.
//
//	go run ./examples/fanfailure
package main

import (
	"fmt"

	"mdn/internal/acoustic"
	"mdn/internal/core"
	"mdn/internal/dsp"
)

func main() {
	const failAt = 10.0
	// A fan is a noise source of the room, which a scenario config does
	// not describe, so this example builds its room by hand: the
	// controller's microphone at the origin.
	room := acoustic.NewRoom(44100, 3)
	mic := room.AddMicrophone("controller", acoustic.Position{}, 0.0005)

	// Foreground server fan 0.3 m from the probe microphone; it
	// stops (fails) at t=10 s.
	fanSrc, fan := core.FanSource(44100, 2.0, 0.3, acoustic.Position{X: 0.3}, 3)
	fanSrc.Until = failAt
	room.AddNoise(fanSrc)
	// Datacenter ambience: a dozen other fans plus HVAC at ~85 dBA.
	room.AddNoise(core.DatacenterNoise(44100, 3.0, 4))

	fmt.Printf("monitored fan: %.0f RPM, %d blades -> blade-pass %.0f Hz, harmonics %v\n",
		fan.RPM, fan.Blades, fan.BladePassHz(), fan.HarmonicFrequencies())

	fm := core.NewFanMonitor(mic, fan.HarmonicFrequencies())
	if err := fm.Train(1, 3); err != nil {
		panic(err)
	}
	base := fm.Baseline()
	fmt.Println("\nbaseline harmonic amplitudes (fan healthy):")
	for i, f := range fm.Harmonics {
		fmt.Printf("  %6.0f Hz: %8.5f (%.1f dB)\n", f, base[i], dsp.AmplitudeDB(base[i]))
	}

	fmt.Println("\npolling every 2 s:")
	for t := 4.0; t <= 14; t += 2 {
		failed, score, err := fm.Check(t, t+1.5)
		if err != nil {
			panic(err)
		}
		state := "healthy"
		if failed {
			state = "ALERT: fan failure"
		}
		fmt.Printf("  t=%4.1f..%4.1fs  amplitude-drop score %.3f  -> %s\n", t, t+1.5, score, state)
	}

	fmt.Printf("\nfigure-7 statistic: on-vs-on diff %.3f, on-vs-off diff %.3f\n",
		fm.AmplitudeDiff(1, 3, 4, 6), fm.AmplitudeDiff(1, 3, 11, 13))
}
