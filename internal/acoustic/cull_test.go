package acoustic

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mdn/internal/audio"
	"mdn/internal/telemetry"
)

// randomScene builds two identical rooms — one with culling enabled,
// one legacy — with k speakers and j microphones at random positions,
// returning them plus the speaker/mic slices (same registration order
// in both, so seeds and pair indices line up).
func randomScene(rng *rand.Rand, k, j int, cull float64, absorb bool) (culled, naive *Room, spC, spN []*Speaker, micC, micN []*Microphone) {
	culled = NewRoom(44100, 77)
	naive = NewRoom(44100, 77)
	culled.CullThreshold = cull
	culled.AirAbsorption = absorb
	naive.AirAbsorption = absorb
	pos := func() Position {
		return Position{X: rng.Float64()*10 - 5, Y: rng.Float64()*10 - 5, Z: rng.Float64() * 2}
	}
	for i := 0; i < k; i++ {
		p := pos()
		spC = append(spC, culled.AddSpeaker("s"+strconv.Itoa(i), p))
		spN = append(spN, naive.AddSpeaker("s"+strconv.Itoa(i), p))
	}
	for i := 0; i < j; i++ {
		p := pos()
		micC = append(micC, culled.AddMicrophone("m"+strconv.Itoa(i), p, 0.0005))
		micN = append(micN, naive.AddMicrophone("m"+strconv.Itoa(i), p, 0.0005))
	}
	return
}

// receivedAmp mirrors the capture path's audibility computation: the
// peak amplitude of sp's tone as heard at mic.
func receivedAmp(r *Room, sp *Speaker, mic *Microphone, tone audio.Tone) float64 {
	d := sp.Pos.Distance(mic.Pos)
	a := tone.Amplitude * attenuation(d)
	if r.AirAbsorption {
		a *= airAbsorption(tone.Frequency, d)
	}
	return a
}

// TestCaptureCulledBitExactWhenAllAudible is the core property test of
// the culling contract: when every emission is received at or above
// the cull floor at every microphone, the culled capture is
// bit-identical to the naive full-walk mix — same walk order, same
// float ops, nothing skipped.
func TestCaptureCulledBitExactWhenAllAudible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 25; iter++ {
		absorb := iter%3 == 0
		culled, _, spC, spN, micC, micN := randomScene(rng, 1+rng.Intn(5), 1+rng.Intn(3), CullAuto, absorb)
		for e := 0; e < 10; e++ {
			si := rng.Intn(len(spC))
			tone := audio.Tone{
				Frequency: 300 + rng.Float64()*4000,
				Duration:  0.02 + rng.Float64()*0.2,
				Amplitude: 1, // placeholder; raised above every floor below
				Phase:     rng.Float64(),
			}
			// Scale the amplitude so the received level clears every
			// microphone's floor with margin — the all-audible regime.
			need := 0.0
			for _, m := range micC {
				a := receivedAmp(culled, spC[si], m, tone)
				if req := m.SelfNoiseRMS / a; req > need {
					need = req
				}
			}
			tone.Amplitude = need * (1.1 + rng.Float64())
			at := rng.Float64() * 0.5
			spC[si].Play(at, tone)
			spN[si].Play(at, tone)
		}
		for w := 0; w < 4; w++ {
			from := rng.Float64() * 0.7
			to := from + 0.05
			for i := range micC {
				a := micC[i].Capture(from, to)
				b := micN[i].Capture(from, to)
				if len(a.Samples) != len(b.Samples) {
					t.Fatalf("iter %d: length mismatch %d vs %d", iter, len(a.Samples), len(b.Samples))
				}
				for s := range a.Samples {
					if a.Samples[s] != b.Samples[s] {
						t.Fatalf("iter %d mic %d window [%g,%g): sample %d differs: %g vs %g",
							iter, i, from, to, s, a.Samples[s], b.Samples[s])
					}
				}
			}
		}
	}
}

// TestCaptureCulledErrorBounded checks the other half of the
// contract: with amplitudes spread across the floor, the culled mix
// deviates from the naive mix by no more than the sum of the received
// amplitudes of the emissions it culled — each individually below the
// floor.
func TestCaptureCulledErrorBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const floor = 0.002
	for iter := 0; iter < 25; iter++ {
		absorb := iter%4 == 0
		culled, _, spC, spN, micC, micN := randomScene(rng, 1+rng.Intn(5), 1+rng.Intn(3), floor, absorb)
		type played struct {
			si   int
			tone audio.Tone
		}
		var schedule []played
		for e := 0; e < 12; e++ {
			si := rng.Intn(len(spC))
			tone := audio.Tone{
				Frequency: 300 + rng.Float64()*4000,
				Duration:  0.02 + rng.Float64()*0.2,
				// Log-uniform across the floor so some emissions cull
				// and some mix.
				Amplitude: floor * math.Pow(10, rng.Float64()*4-2),
				Phase:     rng.Float64(),
			}
			at := rng.Float64() * 0.3
			spC[si].Play(at, tone)
			spN[si].Play(at, tone)
			schedule = append(schedule, played{si, tone})
		}
		for i := range micC {
			bound := 0.0
			anyCulled := false
			for _, p := range schedule {
				if a := receivedAmp(culled, spC[p.si], micC[i], p.tone); a < floor {
					bound += a
					anyCulled = true
				}
			}
			a := micC[i].Capture(0.1, 0.2)
			b := micN[i].Capture(0.1, 0.2)
			maxDiff := 0.0
			for s := range a.Samples {
				if d := math.Abs(a.Samples[s] - b.Samples[s]); d > maxDiff {
					maxDiff = d
				}
			}
			if maxDiff > bound*(1+1e-9)+1e-15 {
				t.Fatalf("iter %d mic %d: max deviation %g exceeds culled-amplitude bound %g", iter, i, maxDiff, bound)
			}
			if !anyCulled && maxDiff != 0 {
				t.Fatalf("iter %d mic %d: nothing below floor yet mixes differ by %g", iter, i, maxDiff)
			}
		}
	}
}

// TestCaptureCulledZeroThresholdIsLegacy pins the knob's off position:
// CullThreshold 0 must mix every emission however faint.
func TestCaptureCulledZeroThresholdIsLegacy(t *testing.T) {
	r := NewRoom(44100, 1)
	sp := r.AddSpeaker("s", Position{X: 50})
	mic := r.AddMicrophone("m", Position{}, 0)
	sp.Play(0, audio.Tone{Frequency: 1000, Duration: 0.5, Amplitude: 1e-6})
	if got := mic.Capture(0.2, 0.25).RMS(); got == 0 {
		t.Fatal("threshold 0 culled a faint emission; legacy path must mix everything")
	}
	// The same emission under an explicit floor above its received
	// level is culled to silence (noiseless microphone).
	r.CullThreshold = 0.001
	if got := mic.Capture(0.2, 0.25).RMS(); got != 0 {
		t.Fatalf("explicit floor failed to cull a sub-threshold emission (RMS %g)", got)
	}
}

// TestCaptureExpiredPrefixSkipped asserts the expiry index does its
// job: a capture far past a burst of dead emissions scans only the
// live tail, observable through the scanned counter.
func TestCaptureExpiredPrefixSkipped(t *testing.T) {
	reg := telemetry.New()
	r := NewRoom(44100, 9)
	r.Instrument(reg)
	sp := r.AddSpeaker("s", Position{X: 1})
	mic := r.AddMicrophone("m", Position{}, 0)
	for i := 0; i < 200; i++ {
		sp.Play(float64(i)*0.005, audio.Tone{Frequency: 800, Duration: 0.01, Amplitude: 0.1})
	}
	sp.Play(10, audio.Tone{Frequency: 900, Duration: 0.1, Amplitude: 0.1})
	mic.Capture(10, 10.05)
	if got := reg.Counter("mdn_capture_emissions_scanned_total").Value(); got > 1 {
		t.Errorf("scanned %d emissions for a window past 200 dead ones; expiry index should bound the scan to 1", got)
	}
	if got := reg.Counter("mdn_capture_emissions_mixed_total").Value(); got != 1 {
		t.Errorf("mixed %d, want 1", got)
	}
}

// TestCaptureTelemetryCounters exercises the scanned/mixed/culled
// accounting and checks the registry still renders.
func TestCaptureTelemetryCounters(t *testing.T) {
	reg := telemetry.New()
	r := NewRoom(44100, 9)
	r.CullThreshold = 0.005
	r.Instrument(reg)
	near := r.AddSpeaker("near", Position{X: 1})
	far := r.AddSpeaker("far", Position{X: 400})
	mic := r.AddMicrophone("m", Position{}, 0.0005)
	near.Play(0, audio.Tone{Frequency: 800, Duration: 2, Amplitude: 0.1}) // received 0.1 ≥ floor
	far.Play(0, audio.Tone{Frequency: 900, Duration: 2, Amplitude: 0.1})  // received 2.5e-4 < floor
	// Window chosen so both wavefronts are present (the far speaker is
	// 400 m out — ~1.17 s of flight).
	mic.Capture(1.3, 1.35)
	scanned := reg.Counter("mdn_capture_emissions_scanned_total").Value()
	mixed := reg.Counter("mdn_capture_emissions_mixed_total").Value()
	culled := reg.Counter("mdn_capture_emissions_culled_total").Value()
	if scanned != 2 || mixed != 1 || culled != 1 {
		t.Errorf("scanned/mixed/culled = %d/%d/%d, want 2/1/1", scanned, mixed, culled)
	}
	if got := reg.Histogram("mdn_capture_scan_emissions", nil).Count(); got != 1 {
		t.Errorf("scan histogram count = %d, want 1", got)
	}
	var text bytes.Buffer
	if err := reg.Snapshot().WriteText(&text); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if err := telemetry.ValidateText(strings.NewReader(text.String())); err != nil {
		t.Errorf("telemetry output invalid: %v\n%s", err, text.String())
	}
	if float64(r.EmissionCount()) != 2 {
		t.Errorf("emission gauge source = %d, want 2", r.EmissionCount())
	}
}

// TestSelfNoiseDistinctForSameLengthNames is the regression test for
// the seed-collision bug: two microphones whose names have the same
// length used to share a noise stream per window.
func TestSelfNoiseDistinctForSameLengthNames(t *testing.T) {
	r := NewRoom(44100, 5)
	a := r.AddMicrophone("mic-a", Position{}, 0.01)
	b := r.AddMicrophone("mic-b", Position{X: 1}, 0.01)
	bufA := a.Capture(0, 0.05)
	bufB := b.Capture(0, 0.05)
	same := 0
	for i := range bufA.Samples {
		if bufA.Samples[i] == bufB.Samples[i] {
			same++
		}
	}
	if same == len(bufA.Samples) {
		t.Fatal("same-length mic names produced identical noise streams")
	}
	// Reproducibility must survive the new seed: capturing the same
	// window again yields the identical waveform.
	again := a.Capture(0, 0.05)
	for i := range bufA.Samples {
		if bufA.Samples[i] != again.Samples[i] {
			t.Fatal("self-noise no longer reproducible per (mic, window)")
		}
	}
}

// TestCompactBeforeKeepsStraddlersExact plays history, snapshots a
// window that straddles the compaction point, compacts, and requires
// the recapture to be bit-identical while fully-dead history is gone.
func TestCompactBeforeKeepsStraddlersExact(t *testing.T) {
	r := NewRoom(44100, 3)
	r.CullThreshold = CullAuto
	sp := r.AddSpeaker("s", Position{X: 1})
	mic := r.AddMicrophone("m", Position{}, 0.0005)
	sp.Play(0, audio.Tone{Frequency: 700, Duration: 0.1, Amplitude: 0.1})   // dead by 0.5
	sp.Play(0.2, audio.Tone{Frequency: 800, Duration: 0.5, Amplitude: 0.1}) // straddles 0.5
	sp.Play(1.0, audio.Tone{Frequency: 900, Duration: 0.1, Amplitude: 0.1}) // future
	want := mic.Capture(0.45, 0.55)
	dropped := r.CompactBefore(0.5)
	if dropped != 1 {
		t.Fatalf("dropped %d emissions, want 1 (only the fully-dead one)", dropped)
	}
	if got := r.EmissionCount(); got != 2 {
		t.Fatalf("emission count after compaction = %d, want 2", got)
	}
	got := mic.Capture(0.45, 0.55)
	for i := range want.Samples {
		if want.Samples[i] != got.Samples[i] {
			t.Fatalf("straddling capture changed by compaction at sample %d: %g vs %g", i, want.Samples[i], got.Samples[i])
		}
	}
	// Compacting at a time nothing precedes is a no-op.
	if n := r.CompactBefore(0.5); n != 0 {
		t.Fatalf("second CompactBefore dropped %d, want 0", n)
	}
}

// TestCompactBeforeRespectsPropagationDelay pins the margin: an
// emission whose source has stopped but whose wavefront is still in
// flight to a distant microphone must survive compaction.
func TestCompactBeforeRespectsPropagationDelay(t *testing.T) {
	r := NewRoom(44100, 3)
	sp := r.AddSpeaker("s", Position{X: 343}) // 1 s of flight time
	mic := r.AddMicrophone("m", Position{}, 0)
	sp.Play(0, audio.Tone{Frequency: 700, Duration: 0.1, Amplitude: 0.5})
	// At t=0.5 the tone has ended at the speaker (0.1) but arrives at
	// the microphone over [1.0, 1.1): still audible, must be kept.
	if n := r.CompactBefore(0.5); n != 0 {
		t.Fatalf("compaction dropped an in-flight emission (dropped %d)", n)
	}
	if got := mic.Capture(1.0, 1.1).RMS(); got == 0 {
		t.Fatal("in-flight emission inaudible after compaction")
	}
	// Past the full arrival window plus margin it is droppable.
	if n := r.CompactBefore(1.2); n != 1 {
		t.Fatalf("compaction kept a fully-dead emission (dropped %d)", n)
	}
}

// TestCompactBeforeBoundsLongRunMemory drives a long emission schedule
// through a moving window with periodic compaction and asserts the
// store stays at the audible horizon rather than the whole history.
func TestCompactBeforeBoundsLongRunMemory(t *testing.T) {
	r := NewRoom(8000, 3)
	sp := r.AddSpeaker("s", Position{X: 1})
	mic := r.AddMicrophone("m", Position{}, 0.0005)
	var buf *audio.Buffer
	peak := 0
	for w := 0; w < 2000; w++ {
		from := float64(w) * 0.05
		sp.Play(from, audio.Tone{Frequency: 700, Duration: 0.04, Amplitude: 0.1})
		buf = mic.CaptureInto(buf, from, from+0.05)
		r.CompactBefore(from - 0.2)
		if n := r.EmissionCount(); n > peak {
			peak = n
		}
	}
	// 2000 emissions played; retention of 0.2 s spans ~5 windows.
	if peak > 16 {
		t.Fatalf("emission store peaked at %d entries; compaction should hold it near the audible horizon (~5)", peak)
	}
}

// TestConcurrentCaptureCompactPlay is the -race exercise over the
// indexed store: concurrent captures on distinct microphones, forward
// scheduling, compaction, and EmissionCount reads.
func TestConcurrentCaptureCompactPlay(t *testing.T) {
	r := NewRoom(8000, 7)
	r.CullThreshold = CullAuto
	const mics = 4
	sps := make([]*Speaker, mics)
	ms := make([]*Microphone, mics)
	for i := 0; i < mics; i++ {
		sps[i] = r.AddSpeaker("s"+strconv.Itoa(i), Position{X: float64(i), Y: 1})
		ms[i] = r.AddMicrophone("m"+strconv.Itoa(i), Position{X: float64(i)}, 0.0005)
	}
	var wg sync.WaitGroup
	for i := 0; i < mics; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			for w := 0; w < 50; w++ {
				sps[i].Play(float64(w)*0.02, audio.Tone{Frequency: 600 + 50*float64(i), Duration: 0.015, Amplitude: 0.1})
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			var buf *audio.Buffer
			for w := 0; w < 50; w++ {
				buf = ms[i].CaptureInto(buf, float64(w)*0.02, float64(w)*0.02+0.02)
			}
		}(i)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for w := 0; w < 50; w++ {
			r.CompactBefore(float64(w) * 0.015)
		}
	}()
	go func() {
		defer wg.Done()
		for w := 0; w < 20; w++ {
			_ = r.EmissionCount()
		}
	}()
	wg.Wait()
}

// TestInsertOutOfOrderMaintainsEndMax plays out of order and checks
// the prefix-max index still bounds the live region correctly.
func TestInsertOutOfOrderMaintainsEndMax(t *testing.T) {
	r := NewRoom(44100, 1)
	sp := r.AddSpeaker("s", Position{X: 1})
	mic := r.AddMicrophone("m", Position{}, 0)
	sp.Play(2.0, audio.Tone{Frequency: 700, Duration: 0.1, Amplitude: 0.1})
	sp.Play(0.0, audio.Tone{Frequency: 800, Duration: 3.0, Amplitude: 0.1}) // long, inserted before
	sp.Play(1.0, audio.Tone{Frequency: 900, Duration: 0.1, Amplitude: 0.1})
	// The long emission straddles t=2.5; a capture there must hear it
	// even though it sorts first (the prefix max, not the local end,
	// bounds the scan).
	buf := mic.Capture(2.5, 2.55)
	if buf.RMS() == 0 {
		t.Fatal("long out-of-order emission lost by the expiry index")
	}
	// Compaction is prefix-bounded: the long straddler sorts first, so
	// it guards the dead short tones behind it — conservative, never
	// lossy.
	if n := r.CompactBefore(2.5); n != 0 {
		t.Fatalf("CompactBefore dropped %d, want 0 (live straddler guards the prefix)", n)
	}
	after := mic.Capture(2.5, 2.55)
	for i := range buf.Samples {
		if buf.Samples[i] != after.Samples[i] {
			t.Fatal("capture changed after a compaction attempt around an out-of-order straddler")
		}
	}
	// Once the straddler too has died out everywhere, everything goes.
	if n := r.CompactBefore(3.2); n != 3 {
		t.Fatalf("CompactBefore dropped %d, want 3", n)
	}
}

// TestCaptureCulledSteadyStateAllocs mirrors the legacy zero-alloc
// guarantee on the culled path, with telemetry instrumented.
func TestCaptureCulledSteadyStateAllocs(t *testing.T) {
	reg := telemetry.New()
	r := NewRoom(44100, 2)
	r.CullThreshold = CullAuto
	r.Instrument(reg)
	mic := r.AddMicrophone("m", Position{}, 0.0005)
	for i := 0; i < 64; i++ {
		sp := r.AddSpeaker("s"+strconv.Itoa(i), Position{X: 10 * float64(i), Y: 1})
		sp.Play(0, audio.Tone{Frequency: 500 + 10*float64(i), Duration: 3600, Amplitude: SPLToAmplitude(60)})
	}
	buf := mic.CaptureInto(nil, 0.1, 0.15)
	allocs := testing.AllocsPerRun(20, func() {
		buf = mic.CaptureInto(buf, 0.1, 0.15)
	})
	if allocs != 0 {
		t.Errorf("culled steady-state capture allocates %v/op, want 0", allocs)
	}
}
