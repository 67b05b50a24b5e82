package core

import (
	"runtime"
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/audio"
)

// BenchmarkFleet is the scale suite: one controller window over N
// voices (N switches, each with its own speaker, microphone and
// frequency), serial versus worker-pool fan-out, with audibility
// culling on (the deployment default) versus off (the naive
// every-mic-mixes-every-emission wall PR5 measured). The detector
// uses the FFT method — at fleet watch-list sizes that is the paper's
// own choice (Figure 2 uses the FFT) and the realistic configuration.
//
// Placement is sparse — voice i's speaker at x=10i metres, its
// microphone alongside — so each microphone's audible set is the ~13
// voices within its noise-floor radius (63 m at 60 dB SPL against a
// 0.0005 floor) no matter how large the fleet grows. That is the
// deployment geometry of the paper's "switches in a rack row" story
// and the regime where per-mic cost must track the audible set, not
// the global schedule: culled rows grow linearly with N, nocull rows
// quadratically.
//
// On a multi-core host the parallel rows approach serial/GOMAXPROCS;
// on a single-core host they pin the pool's overhead instead
// (parallel ≈ serial). All rows must report 0 allocs/op at steady
// state — that is the hard acceptance bar.

func benchFleetRoom(n int, cull bool) ([]*acoustic.Microphone, *Detector) {
	room := acoustic.NewRoom(44100, 7)
	if cull {
		room.CullThreshold = acoustic.CullAuto
	}
	mics := make([]*acoustic.Microphone, n)
	freqs := make([]float64, n)
	for i := 0; i < n; i++ {
		name := "s" + itoa(i)
		sp := room.AddSpeaker(name, acoustic.Position{X: 10 * float64(i), Y: 1})
		mics[i] = room.AddMicrophone("mic-"+name,
			acoustic.Position{X: 10 * float64(i)}, 0.0005)
		freqs[i] = 400 + 20*float64(i)
		// One long tone per voice so every benchmark window carries a
		// full fleet of signal.
		sp.Play(0, audio.Tone{Frequency: freqs[i], Duration: 3600,
			Amplitude: acoustic.SPLToAmplitude(60)})
	}
	det := NewDetector(MethodFFT, freqs)
	return mics, det
}

// steadyFleet builds the n-voice fleet warmed up past the settle point
// and returns it with a step analysing the next window.
func steadyFleet(n, workers int, cull bool) (*Fleet, func()) {
	mics, det := benchFleetRoom(n, cull)
	f := NewFleet(det, workers)
	for _, m := range mics {
		f.AddMicrophone(m)
	}
	// Windows start after every wavefront has arrived everywhere: the
	// farthest speaker-microphone pair in a 1024-voice fleet is
	// ~10.2 km apart, a ~30 s flight at 343 m/s. Benchmarking earlier
	// windows would let the plain time-overlap check discard distant
	// voices for free and hide the quadratic mixing wall the nocull
	// rows exist to measure.
	const settle = 35.0
	// Warm up clones, plans, capture buffers and result slots so the
	// timed region measures the steady state.
	f.Analyse(settle, settle+0.050)
	f.Analyse(settle+0.050, settle+0.100)
	i := 0
	return f, func() {
		from := settle + float64(2+i%1000)*0.050
		i++
		f.Analyse(from, from+0.050)
	}
}

func benchFleet(b *testing.B, n, workers int, cull bool) {
	f, step := steadyFleet(n, workers, cull)
	defer f.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestFleet64VoiceSteadyStateAllocs holds the 64-voice serial rows of
// BenchmarkFleet, culled and nocull, to 0 allocs per window.
func TestFleet64VoiceSteadyStateAllocs(t *testing.T) {
	for _, cull := range []bool{true, false} {
		f, step := steadyFleet(64, 1, cull)
		allocs := testing.AllocsPerRun(10, step)
		f.Close()
		if allocs != 0 {
			t.Errorf("cull=%v: 64-voice serial window allocates %v/op, want 0", cull, allocs)
		}
	}
}

func BenchmarkFleet(b *testing.B) {
	for _, n := range []int{1, 8, 64, 256, 1024} {
		b.Run("voices="+itoa(n)+"/serial", func(b *testing.B) {
			benchFleet(b, n, 1, true)
		})
		b.Run("voices="+itoa(n)+"/parallel", func(b *testing.B) {
			benchFleet(b, n, runtime.GOMAXPROCS(0), true)
		})
		if n <= 256 {
			// The unculled wall for comparison; capped at 256 voices —
			// the quadratic path at 1024 costs tens of seconds per
			// window, which is the point of this PR, not a row worth
			// waiting on.
			b.Run("voices="+itoa(n)+"/nocull", func(b *testing.B) {
				benchFleet(b, n, 1, false)
			})
		}
	}
}

// BenchmarkFleetWorkerSweep holds the fleet at 64 voices and sweeps
// the pool size, exposing pool overhead (1 CPU) or scaling (many).
func BenchmarkFleetWorkerSweep(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run("workers="+itoa(w), func(b *testing.B) {
			benchFleet(b, 64, w, true)
		})
	}
}
