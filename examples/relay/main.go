// Multi-hop sound relay (the paper's §8 open question): a switch 10 m
// from the controller, playing quiet 40 dB tones, is inaudible at the
// calibrated controller threshold. A frequency-translating relay
// placed 2 m from the switch hears it and re-emits each confirmed
// tone on a shifted band, extending the controller's reach by one
// acoustic hop at the cost of ~50 ms per hop.
//
//	go run ./examples/relay
package main

import (
	"fmt"

	"mdn/internal/acoustic"
	"mdn/internal/core"
	"mdn/internal/mp"
	"mdn/internal/netsim"
)

func main() {
	// The relay's microphone and speaker are room parts a scenario
	// config does not describe, so this example builds its room by hand:
	// the controller's microphone at the origin.
	sim := netsim.NewSim()
	room := acoustic.NewRoom(44100, 13)
	mic := room.AddMicrophone("controller", acoustic.Position{}, 0.0005)

	// The far switch's voice: 10 m away, quiet tones.
	farSpk := room.AddSpeaker("far-switch", acoustic.Position{X: 10})
	farVoice := core.NewVoice(sim, mp.NewSounder(mp.NewPi(sim, farSpk, 0.002)))
	farVoice.Intensity = 40      // 3.2e-4 at the controller: below its floor
	farVoice.ToneDuration = 0.12 // two full detection windows at the relay

	const inFreq, outFreq = 600.0, 1000.0

	// The relay: microphone at 8 m (2 m from the switch), speaker at
	// 2 m from the controller.
	relayMic := room.AddMicrophone("relay-mic", acoustic.Position{X: 8}, 0.0001)
	relaySpk := room.AddSpeaker("relay-spk", acoustic.Position{X: 2})
	relay, err := core.NewRelay(sim, relayMic, mp.NewPi(sim, relaySpk, 0.002),
		map[float64]float64{inFreq: outFreq})
	if err != nil {
		panic(err)
	}
	relay.Detector().MinAmplitude = 1e-3

	// The controller watches both the original and translated bands,
	// with a floor the direct path cannot reach.
	det := core.NewDetector(core.MethodGoertzel, []float64{inFreq, outFreq})
	det.MinAmplitude = 1e-3
	ctrl := core.NewController(sim, mic, det)
	onset := core.NewOnsetFilter()
	var direct, relayed int
	ctrl.SubscribeWindows(func(_ float64, dets []core.Detection) {
		for _, d := range onset.Step(dets) {
			switch d.Frequency {
			case inFreq:
				direct++
				fmt.Printf("t=%.2fs  heard the switch DIRECTLY at %.0f Hz\n", d.Time, d.Frequency)
			case outFreq:
				relayed++
				fmt.Printf("t=%.2fs  heard the switch VIA RELAY at %.0f Hz\n", d.Time, d.Frequency)
			}
		}
	})
	relay.Start(0)
	ctrl.Start(0)

	fmt.Printf("switch at 10 m plays %0.f Hz at 40 dB; relay maps %.0f -> %.0f Hz\n\n",
		inFreq, inFreq, outFreq)
	for i := 0; i < 5; i++ {
		at := 0.5 + float64(float64(i)*0.5)
		sim.Schedule(at, func() { farVoice.Play(inFreq) })
	}
	sim.RunUntil(4)

	fmt.Printf("\ntones played: 5, relayed: %d, heard directly: %d, heard via relay: %d\n",
		relay.Relayed, direct, relayed)
}
