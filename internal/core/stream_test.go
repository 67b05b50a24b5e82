package core

import (
	"errors"
	"math"
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/audio"
	"mdn/internal/telemetry"
)

// streamSchedule places a repeatable tone schedule in a testbed: three
// bursts on two frequencies, overlapping, plus a quiet gap — enough
// structure that the batch and streaming paths would diverge visibly on
// any capture, transform, or filter discrepancy.
func streamSchedule(tb *testbed, freqs []float64) {
	sp := tb.room.AddSpeaker("s1", acoustic.Position{X: 1})
	sp2 := tb.room.AddSpeaker("s2", acoustic.Position{X: -1.5, Y: 0.5})
	amp := acoustic.SPLToAmplitude(60)
	sp.Play(0.080, audio.Tone{Frequency: freqs[0], Duration: 0.120, Amplitude: amp})
	sp2.Play(0.130, audio.Tone{Frequency: freqs[1], Duration: 0.070, Amplitude: amp * 0.7})
	sp.Play(0.410, audio.Tone{Frequency: freqs[1], Duration: 0.055, Amplitude: amp})
}

// windowRec is one dispatched window batch, detections deep-copied out
// of the dispatch scratch.
type windowRec struct {
	from float64
	dets []Detection
}

func recordWindows(ctrl *Controller) *[]windowRec {
	recs := &[]windowRec{}
	ctrl.SubscribeWindows(func(from float64, dets []Detection) {
		*recs = append(*recs, windowRec{from: from, dets: append([]Detection(nil), dets...)})
	})
	return recs
}

// TestStreamHopEqualsWindowBitExactWithBatch is the equivalence
// contract: at hop == window the streaming pipeline must reproduce the
// batch window loop's dispatched batches exactly — same window starts,
// same detections, bit-identical amplitudes — for both detection
// methods. Identical seeds give identical self-noise, so any float
// difference anywhere in capture, transform, or filtering fails this.
func TestStreamHopEqualsWindowBitExactWithBatch(t *testing.T) {
	for _, method := range []Method{MethodGoertzel, MethodFFT} {
		run := func(stream bool) []windowRec {
			tb := newTestbed(42)
			freqs := tb.plan.MustAllocate("s1", 2)
			streamSchedule(tb, freqs)
			ctrl := NewController(tb.sim, tb.mic, NewDetector(method, freqs))
			recs := recordWindows(ctrl)
			if stream {
				ctrl.StartStream(0, ctrl.Window)
			} else {
				ctrl.Start(0)
			}
			tb.sim.RunUntil(0.6)
			return *recs
		}
		batch, streamed := run(false), run(true)
		if len(batch) == 0 || len(streamed) != len(batch) {
			t.Fatalf("method %v: %d streamed windows vs %d batch", method, len(streamed), len(batch))
		}
		for i := range batch {
			b, s := batch[i], streamed[i]
			if b.from != s.from || len(b.dets) != len(s.dets) {
				t.Fatalf("method %v window %d: stream (%g, %d dets) != batch (%g, %d dets)",
					method, i, s.from, len(s.dets), b.from, len(b.dets))
			}
			for j := range b.dets {
				if b.dets[j] != s.dets[j] {
					t.Fatalf("method %v window %d det %d: stream %+v != batch %+v (not bit-exact)",
						method, i, j, s.dets[j], b.dets[j])
				}
			}
		}
	}
}

// TestStreamDetectsMidWindowOnsetWithinOneHop is the latency claim: a
// tone starting mid-window is detected within one hop of its arrival at
// the microphone, not at the close of the batch window it lands in.
func TestStreamDetectsMidWindowOnsetWithinOneHop(t *testing.T) {
	tb := newTestbed(7)
	freqs := tb.plan.MustAllocate("s1", 1)
	sp := tb.room.AddSpeaker("s1", acoustic.Position{X: 1})
	const start = 0.1037 // mid-window, mid-hop
	sp.Play(start, audio.Tone{Frequency: freqs[0], Duration: 0.090,
		Amplitude: acoustic.SPLToAmplitude(60)})

	ctrl := tb.controller(freqs)
	const hop = 0.010 // 441 samples: one fifth of the 50 ms window
	s := ctrl.StartStream(0, hop)
	var onsets []Detection
	s.OnOnset = func(d Detection) { onsets = append(onsets, d) }
	tb.sim.RunUntil(0.4)

	if len(onsets) != 1 {
		t.Fatalf("onsets = %+v, want exactly one", onsets)
	}
	arr, ok := tb.mic.LatestArrivalBefore(freqs[0], ctrl.Detector.ToleranceHz, onsets[0].Time)
	if !ok {
		t.Fatal("no ground-truth arrival for the onset")
	}
	lat := onsets[0].Time - arr
	if lat <= 0 || lat > hop+1e-9 {
		t.Errorf("sound-to-detection latency = %.4fs, want within one hop (%.3fs)", lat, hop)
	}
	// The batch path could not have reported before the close of the
	// window containing the arrival.
	batchClose := math.Ceil(arr/ctrl.Window) * ctrl.Window
	if onsets[0].Time >= batchClose {
		t.Errorf("onset at %.4f not earlier than batch close %.4f", onsets[0].Time, batchClose)
	}
}

// TestStreamOnsetDedupAcrossBoundaryOffsets sweeps a tone's start
// across an analysis-window boundary at 1-sample offsets. Whatever the
// alignment, a tone spanning several hop windows must report exactly
// one onset — the boundary-duplication bug class this PR closes at the
// detection layer.
func TestStreamOnsetDedupAcrossBoundaryOffsets(t *testing.T) {
	const (
		hop      = 0.010
		boundary = 0.150 // both a hop close and a window boundary
		dt       = 1.0 / 44100
	)
	for off := -3; off <= 3; off++ {
		start := boundary + float64(off)*dt
		tb := newTestbed(11)
		freqs := tb.plan.MustAllocate("s1", 1)
		sp := tb.room.AddSpeaker("s1", acoustic.Position{X: 1})
		sp.Play(start, audio.Tone{Frequency: freqs[0], Duration: 0.080,
			Amplitude: acoustic.SPLToAmplitude(60)})
		ctrl := tb.controller(freqs)
		s := ctrl.StartStream(0, hop)
		count := 0
		s.OnOnset = func(Detection) { count++ }
		tb.sim.RunUntil(0.5)
		if count != 1 {
			t.Errorf("tone starting at boundary%+d samples: %d onsets, want 1", off, count)
		}
		if s.Onsets != uint64(count) {
			t.Errorf("offset %+d: Onsets counter %d != callback count %d", off, s.Onsets, count)
		}
	}
}

// TestStreamCompactMidStream compacts the room's emission store past
// the streaming ring's next capture span mid-run: the hop must fail
// with acoustic.ErrCompacted (typed, counted, recorded), the pipeline
// must re-prime at the live edge, and a tone played after the glitch
// must still produce an onset.
func TestStreamCompactMidStream(t *testing.T) {
	tb := newTestbed(13)
	freqs := tb.plan.MustAllocate("s1", 1)
	sp := tb.room.AddSpeaker("s1", acoustic.Position{X: 1})
	ctrl := tb.controller(freqs)
	s := ctrl.StartStream(0, 0.010)
	var onsets []Detection
	s.OnOnset = func(d Detection) { onsets = append(onsets, d) }

	// Compact to a time strictly between hop boundaries, so the next
	// hop's span [0.200, 0.210) starts behind the horizon.
	tb.sim.Schedule(0.2005, func() { tb.room.CompactBefore(0.203) })
	sp.Play(0.300, audio.Tone{Frequency: freqs[0], Duration: 0.080,
		Amplitude: acoustic.SPLToAmplitude(60)})
	tb.sim.RunUntil(0.5)

	if s.CaptureErrors != 1 {
		t.Fatalf("CaptureErrors = %d, want exactly 1 (one hop behind the horizon)", s.CaptureErrors)
	}
	recorded := ctrl.Errors.errs
	found := false
	for _, e := range recorded {
		if e.App == "stream" && errors.Is(e.Err, acoustic.ErrCompacted) {
			found = true
		}
	}
	if !found {
		t.Errorf("ErrCompacted not recorded in the error log: %+v", recorded)
	}
	if len(onsets) != 1 || math.Abs(onsets[0].Frequency-freqs[0]) > 1e-9 {
		t.Fatalf("post-glitch onsets = %+v, want one at %g Hz", onsets, freqs[0])
	}
	if onsets[0].Time < 0.300 {
		t.Errorf("onset at %.3f predates the post-glitch tone", onsets[0].Time)
	}

	// Out-of-band reads behind the horizon fail typed too.
	if _, err := tb.mic.CaptureChecked(nil, 0.10, 0.15); !errors.Is(err, acoustic.ErrCompacted) {
		t.Errorf("CaptureChecked behind horizon = %v, want ErrCompacted", err)
	}
}

func TestCheckStreamHop(t *testing.T) {
	const w, r = 0.050, 44100.0
	for _, hop := range []float64{0.010, 0.050, 0.005 * 10.0 / 3.0, 735 / r, 1 / r} {
		if err := CheckStreamHop(w, r, hop); err != nil {
			t.Errorf("CheckStreamHop(%g) = %v, want nil", hop, err)
		}
	}
	for _, hop := range []float64{0, -0.010, 0.012, 0.0125, 0.005, 440 / r, 0.060} {
		if err := CheckStreamHop(w, r, hop); err == nil {
			t.Errorf("CheckStreamHop(%g) accepted a misaligned hop", hop)
		}
	}
}

func TestStartStreamPanicsOnMisalignedHop(t *testing.T) {
	tb := newTestbed(17)
	ctrl := tb.controller([]float64{1000})
	defer func() {
		if recover() == nil {
			t.Error("StartStream with a misaligned hop did not panic")
		}
	}()
	ctrl.StartStream(0, 0.012)
}

func TestStreamStopHalts(t *testing.T) {
	tb := newTestbed(19)
	ctrl := tb.controller([]float64{1000})
	s := ctrl.StartStream(0, 0.010)
	if ctrl.stream != s {
		t.Fatal("Stream() does not return the running pipeline")
	}
	tb.sim.RunUntil(0.2)
	hops := s.Hops
	ctrl.Stop()
	if ctrl.stream != nil {
		t.Error("Stop left the stream attached")
	}
	tb.sim.RunUntil(0.5)
	if s.Hops != hops {
		t.Errorf("hops grew after Stop: %d -> %d", hops, s.Hops)
	}
}

// TestStreamSteadyStateAllocs drives the full per-hop path — ring
// capture, transform, filter, dedup, dispatch — and
// requires zero steady-state allocations, the same discipline the batch
// fleet path holds.
func TestStreamSteadyStateAllocs(t *testing.T) {
	tb := newTestbed(23)
	freqs := tb.plan.MustAllocate("s1", 2)
	sp := tb.room.AddSpeaker("s1", acoustic.Position{X: 1})
	sp.Play(0, audio.Tone{Frequency: freqs[0], Duration: 120,
		Amplitude: acoustic.SPLToAmplitude(60)})
	ctrl := tb.controller(freqs)
	ctrl.SubscribeWindows(func(float64, []Detection) {})
	const hop = 0.010
	s := ctrl.StartStream(0, hop)

	next := hop
	step := func() {
		s.step(next-hop, next)
		next += hop
	}
	for i := 0; i < 20; i++ {
		step() // fill the window, warm all scratch
	}
	// AllocsPerRun counts process-wide mallocs under GOMAXPROCS(1);
	// unrelated background work can flakily land inside a trial, so any
	// clean trial proves the path allocation-free.
	allocs := math.Inf(1)
	for trial := 0; trial < 3 && allocs != 0; trial++ {
		if got := testing.AllocsPerRun(100, step); got < allocs {
			allocs = got
		}
	}
	if allocs != 0 {
		t.Errorf("streaming hop allocates %g/op in steady state, want 0", allocs)
	}
}

// TestStreamLatencyAttributedToLoudestMic: with two microphones 30 m
// apart and a tone beside the second, the onset's latency is measured
// at the microphone that heard it loudest — not at microphone 0, where
// the sound has not yet arrived when the onset fires.
func TestStreamLatencyAttributedToLoudestMic(t *testing.T) {
	tb := newTestbed(7)
	near := tb.room.AddMicrophone("near", acoustic.Position{X: 30}, 0.0005)
	freqs := tb.plan.MustAllocate("s1", 1)
	sp := tb.room.AddSpeaker("s1", acoustic.Position{X: 29})
	sp.Play(0.1037, audio.Tone{Frequency: freqs[0], Duration: 0.090,
		Amplitude: acoustic.SPLToAmplitude(60)})
	ctrl := tb.controller(freqs)
	ctrl.EnableFleet(1).AddMicrophone(near)
	ctrl.Instrument(telemetry.New())
	const hop = 0.010
	s := ctrl.StartStream(0, hop)
	tb.sim.RunUntil(0.5)

	lat := s.DetectLatency()
	if lat.Count() != 1 {
		t.Fatalf("%d latency observations (%d onsets), want exactly 1", lat.Count(), s.Onsets)
	}
	if got := lat.Sum(); got <= 0 || got > hop+1e-9 {
		t.Errorf("sound-to-detection latency = %.4fs, want within one hop (%.3fs)", got, hop)
	}
}
