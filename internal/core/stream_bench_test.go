package core

import (
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/audio"
)

// BenchmarkStreamHop measures one steady-state streaming step — hop
// capture into the lane ring, transform, filter, dedup, dispatch —
// at the default 10 ms hop and at hop == window (the batch-equivalent
// setting), for both detection methods, against the batch loop's
// per-window analyse. The wall-time budget: a 10 ms hop must cost well
// under 10 ms of wall clock or the streaming path cannot keep real
// time; allocs/op must be 0 (CI gates the equivalent test).
func BenchmarkStreamHop(b *testing.B) {
	for _, bench := range []struct {
		name   string
		method Method
		hop    float64
	}{
		{"goertzel/hop=10ms", MethodGoertzel, 0.010},
		{"goertzel/hop=window", MethodGoertzel, DefaultWindow},
		{"fft/hop=10ms", MethodFFT, 0.010},
		{"fft/hop=window", MethodFFT, DefaultWindow},
	} {
		b.Run(bench.name, func(b *testing.B) {
			tb := newTestbed(31)
			freqs := tb.plan.MustAllocate("s1", 4)
			sp := tb.room.AddSpeaker("s1", acoustic.Position{X: 1})
			sp.Play(0, audio.Tone{Frequency: freqs[0], Duration: 1e6,
				Amplitude: acoustic.SPLToAmplitude(60)})
			ctrl := NewController(tb.sim, tb.mic, NewDetector(bench.method, freqs))
			ctrl.SubscribeWindows(func(float64, []Detection) {})
			s := ctrl.StartStream(0, bench.hop)
			next := bench.hop
			step := func() {
				s.step(next-bench.hop, next)
				next += bench.hop
			}
			for i := 0; i < 10; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}

	b.Run("batch/window=50ms", func(b *testing.B) {
		tb := newTestbed(31)
		freqs := tb.plan.MustAllocate("s1", 4)
		sp := tb.room.AddSpeaker("s1", acoustic.Position{X: 1})
		sp.Play(0, audio.Tone{Frequency: freqs[0], Duration: 1e6,
			Amplitude: acoustic.SPLToAmplitude(60)})
		ctrl := tb.controller(freqs)
		ctrl.SubscribeWindows(func(float64, []Detection) {})
		next := ctrl.Window
		for i := 0; i < 10; i++ {
			ctrl.analyse(next-ctrl.Window, next)
			next += ctrl.Window
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctrl.analyse(next-ctrl.Window, next)
			next += ctrl.Window
		}
	})
}
