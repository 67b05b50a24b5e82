package acoustic

import (
	"math"
	"sync"
	"testing"

	"mdn/internal/audio"
)

// These tests pin the PR5 capture-path contract: Play keeps the
// emission list sorted so nothing re-sorts at capture time, and the
// rendered waveform is a function of the schedule alone — not of the
// order Play calls happened to arrive in, and not of whether the
// caller used Capture or the pooled CaptureInto.

// playSchedule is a deliberately overlapping multi-speaker schedule.
type playCall struct {
	speaker string
	at      float64
	tone    audio.Tone
}

func testSchedule() []playCall {
	return []playCall{
		{"s1", 0.30, audio.Tone{Frequency: 500, Duration: 0.10, Amplitude: 0.2}},
		{"s2", 0.10, audio.Tone{Frequency: 700, Duration: 0.30, Amplitude: 0.1}},
		{"s1", 0.10, audio.Tone{Frequency: 900, Duration: 0.05, Amplitude: 0.3}},
		{"s2", 0.32, audio.Tone{Frequency: 640, Duration: 0.20, Amplitude: 0.15}},
		{"s1", 0.00, audio.Tone{Frequency: 440, Duration: 0.50, Amplitude: 0.05}},
	}
}

func roomWith(calls []playCall) (*Room, *Microphone) {
	r := NewRoom(44100, 99)
	s1 := r.AddSpeaker("s1", Position{X: 1})
	s2 := r.AddSpeaker("s2", Position{Y: 2})
	mic := r.AddMicrophone("ctl", Position{}, 0.0005)
	for _, c := range calls {
		sp := s1
		if c.speaker == "s2" {
			sp = s2
		}
		sp.Play(c.at, c.tone)
	}
	return r, mic
}

func TestCaptureInvariantToPlayOrder(t *testing.T) {
	sched := testSchedule()
	_, mic := roomWith(sched)
	want := mic.Capture(0, 0.6)

	// Same schedule delivered in reverse call order — the sorted
	// emission list makes the mix identical, bit for bit.
	rev := make([]playCall, len(sched))
	for i, c := range sched {
		rev[len(sched)-1-i] = c
	}
	_, mic2 := roomWith(rev)
	got := mic2.Capture(0, 0.6)

	if got.Len() != want.Len() {
		t.Fatalf("lengths differ: %d vs %d", got.Len(), want.Len())
	}
	for i := range want.Samples {
		if want.Samples[i] != got.Samples[i] {
			t.Fatalf("capture depends on Play order: sample %d = %x, want %x",
				i, got.Samples[i], want.Samples[i])
		}
	}
}

func TestCaptureIntoMatchesCapture(t *testing.T) {
	_, mic := roomWith(testSchedule())
	var reused *audio.Buffer
	for _, win := range [][2]float64{{0, 0.05}, {0.05, 0.1}, {0.3, 0.35}, {0.55, 0.6}} {
		want := mic.Capture(win[0], win[1])
		reused = mic.CaptureInto(reused, win[0], win[1])
		if reused.Len() != want.Len() {
			t.Fatalf("window %v: lengths differ", win)
		}
		for i := range want.Samples {
			if want.Samples[i] != reused.Samples[i] {
				t.Fatalf("window %v sample %d = %x, want %x",
					win, i, reused.Samples[i], want.Samples[i])
			}
		}
	}
}

// TestCaptureSplitInvariant pins what keeps streaming captures equal to
// batch ones: with self-noise on, capturing [a, c) gives the same
// samples, bit for bit, as capturing [a, b) and [b, c) and
// concatenating, for split points b off the tone-synthesis block grid
// and on a superblock boundary of a tone (its 1024th sample). It holds for a microphone whose noise floor ramps up and back down
// inside the span, splits landing before, inside and after the ramps,
// for one whose sensitivity ramps, and for a CullAuto room whose
// microphone's cull floor a noise ramp moves past a tone's level.
func TestCaptureSplitInvariant(t *testing.T) {
	const sr = 44100.0
	calls := append(testSchedule(),
		playCall{"s2", 0.05, audio.Tone{Frequency: 2345.6, Duration: 0.4, Amplitude: 0.25, Phase: 0.7}})
	r, _ := roomWith(calls)
	hiss := r.AddMicrophone("hiss", Position{X: 0.3, Y: -0.4}, 0.01)
	ramped := r.AddMicrophone("ramped", Position{X: -0.2, Y: 0.5}, 0.01)
	ramped.ScheduleNoiseRamp(0.1, 0.3, 0.2)
	ramped.ScheduleNoiseRamp(0.4, 0.45, 0.005)
	const a, c = 2205, 24255 // samples: [50 ms, 550 ms)
	for _, mic := range []*Microphone{hiss, ramped} {
		want := mic.Capture(a/sr, c/sr)
		arrive, ok := mic.LatestArrivalBefore(2345.6, 0.1, 1)
		if !ok {
			t.Fatalf("%s: the 2345.6 Hz tone never arrives", mic.Name)
		}
		super := int(math.Round(arrive*sr)) + 1024
		for _, b := range []int{a + 1, a + 441, a + 441 + 13, a + 1000, super, 13337, 18500, 19000, c - 1} {
			head := mic.Capture(a/sr, float64(b)/sr)
			tail := mic.Capture(float64(b)/sr, c/sr)
			got := append(head.Samples, tail.Samples...)
			if len(got) != want.Len() {
				t.Fatalf("%s: split at %d: %d samples, want %d", mic.Name, b, len(got), want.Len())
			}
			for i := range want.Samples {
				if got[i] != want.Samples[i] {
					t.Fatalf("%s: split at %d: sample %d = %x, want %x", mic.Name, b, a+i, got[i], want.Samples[i])
				}
			}
		}
	}

	// [50 ms, 100 ms) whole and split at 70 ms.
	deaf := r.AddMicrophone("deaf", Position{X: 0.1, Y: 0.2}, 0.01)
	deaf.ScheduleSensitivityRamp(0, 1, 0.5)
	// The tone arrives at 0.04 amplitude; the floor ramps from 0.01
	// through 0.0345 at 50 ms to 0.0443 at 70 ms.
	culled := NewRoom(sr, 5)
	culled.CullThreshold = CullAuto
	culled.AddSpeaker("s", Position{X: 1}).Play(0, audio.Tone{Frequency: 880, Duration: 0.2, Amplitude: 0.04})
	floored := culled.AddMicrophone("floored", Position{}, 0.01)
	floored.ScheduleNoiseRamp(0, 1, 0.5)
	for _, mic := range []*Microphone{deaf, floored} {
		want := mic.Capture(0.05, 0.1)
		got := append(mic.Capture(0.05, 0.07).Samples, mic.Capture(0.07, 0.1).Samples...)
		if len(got) != want.Len() {
			t.Fatalf("%s: %d samples, want %d", mic.Name, len(got), want.Len())
		}
		for i := range want.Samples {
			if got[i] != want.Samples[i] {
				t.Fatalf("%s: split at 70 ms: sample %d = %x, want %x", mic.Name, a+i, got[i], want.Samples[i])
			}
		}
	}
}

func TestCaptureIntoSteadyStateAllocs(t *testing.T) {
	_, mic := roomWith(testSchedule())
	buf := mic.CaptureInto(nil, 0, 0.05) // warm up scratch
	allocs := testing.AllocsPerRun(50, func() {
		buf = mic.CaptureInto(buf, 0.1, 0.15)
	})
	if allocs != 0 {
		t.Errorf("steady-state CaptureInto allocates %.1f objects/op, want 0", allocs)
	}
}

// TestCaptureInternedTableAllocs holds a capture whose every tone mixes
// through the room's tone tables, one per distinct frequency played, to
// zero allocations.
func TestCaptureInternedTableAllocs(t *testing.T) {
	r, mic := roomWith(testSchedule())
	if got, want := len(r.tables), len(testSchedule()); got != want {
		t.Fatalf("room holds %d tone tables, want one per frequency: %d", got, want)
	}
	for _, e := range r.emissions {
		if e.table == nil {
			t.Fatalf("emission at %g of %+v has no tone table", e.At, e.Tone)
		}
	}
	buf := mic.CaptureInto(nil, 0, 0.05)
	if allocs := testing.AllocsPerRun(50, func() { buf = mic.CaptureInto(buf, 0.1, 0.35) }); allocs != 0 {
		t.Errorf("a capture through interned tone tables allocates %.1f objects/op, want 0", allocs)
	}
}

// TestReplayKnownFrequencyAllocs holds playing a frequency the room has
// already heard to zero allocations: it finds the frequency's table and
// builds none.
func TestReplayKnownFrequencyAllocs(t *testing.T) {
	r := NewRoom(44100, 1)
	sp := r.AddSpeaker("s", Position{X: 1})
	r.AddMicrophone("m", Position{}, 0)
	tone := audio.Tone{Frequency: 440, Duration: 0.03, Amplitude: 0.1}
	at := 0.0
	for ; at < 1; at += 0.05 {
		sp.Play(at, tone) // grows the emission store
	}
	r.CompactBefore(at)
	allocs := testing.AllocsPerRun(100, func() {
		sp.Play(at, tone)
		at += 0.05
		r.CompactBefore(at)
	})
	if allocs != 0 {
		t.Errorf("replaying a known frequency allocates %.1f objects/op, want 0", allocs)
	}
	if len(r.tables) != 1 {
		t.Errorf("room holds %d tone tables for one frequency", len(r.tables))
	}
}

// TestToneTablesCapped plays more distinct frequencies than the room
// keeps tables for: the room stops at maxToneTables, and a tone played
// past the cap mixes the same samples as in a room that has its table.
func TestToneTablesCapped(t *testing.T) {
	r := NewRoom(44100, 1)
	sp := r.AddSpeaker("s", Position{X: 1})
	mic := r.AddMicrophone("m", Position{}, 0)
	var last audio.Tone
	var at float64
	for i := 0; i < maxToneTables+2; i++ {
		at = 0.01 * float64(i)
		last = audio.Tone{Frequency: 300 + float64(i), Duration: 0.005, Amplitude: 0.1}
		sp.Play(at, last)
	}
	if len(r.tables) != maxToneTables || r.emissions[len(r.emissions)-1].table != nil {
		t.Fatalf("room holds %d tables, and the last emission has one: %v; want %d and none",
			len(r.tables), r.emissions[len(r.emissions)-1].table != nil, maxToneTables)
	}
	alone := NewRoom(44100, 1)
	alone.AddSpeaker("s", Position{X: 1}).Play(at, last)
	want := alone.AddMicrophone("m", Position{}, 0).Capture(at, at+0.01)
	got := mic.Capture(at, at+0.01)
	for i := range want.Samples {
		if math.Float64bits(got.Samples[i]) != math.Float64bits(want.Samples[i]) {
			t.Fatalf("sample %d past the cap = %x, want %x", i, got.Samples[i], want.Samples[i])
		}
	}
}

func TestEmissionsStaySortedUnderOutOfOrderPlay(t *testing.T) {
	r := NewRoom(44100, 1)
	sp := r.AddSpeaker("s", Position{X: 1})
	ats := []float64{5, 1, 3, 1, 4, 0, 3}
	for i, at := range ats {
		sp.Play(at, audio.Tone{Frequency: 400 + 10*float64(i), Duration: 0.05, Amplitude: 0.1})
	}
	em := r.emissions
	if len(em) != len(ats) {
		t.Fatalf("emissions = %d, want %d", len(em), len(ats))
	}
	for i := 1; i < len(em); i++ {
		if em[i].At < em[i-1].At {
			t.Fatalf("emissions out of order at %d: %g after %g", i, em[i].At, em[i-1].At)
		}
	}
	// Equal start times fall back to the total order (here: frequency),
	// so the mix order is schedule-determined, not arrival-determined.
	if em[1].Tone.Frequency != 410 || em[2].Tone.Frequency != 430 {
		t.Errorf("ties reordered: %g then %g, want 410 then 430",
			em[1].Tone.Frequency, em[2].Tone.Frequency)
	}
}

func TestConcurrentCaptureIntoAcrossMicrophones(t *testing.T) {
	// The fleet fan-out path: one goroutine per microphone, each with
	// its own pooled buffer, all reading the same room concurrently
	// while a speaker keeps scheduling, plus a second capturer of the
	// first microphone. Run under -race in CI.
	r := NewRoom(44100, 3)
	sp := r.AddSpeaker("s", Position{X: 1})
	const mics = 8
	ms := make([]*Microphone, mics)
	for i := range ms {
		ms[i] = r.AddMicrophone(string(rune('a'+i)), Position{Y: float64(i)}, 0.0005)
	}
	sp.Play(0, audio.Tone{Frequency: 600, Duration: 1, Amplitude: 0.2})

	var wg sync.WaitGroup
	wg.Add(mics + 2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			sp.Play(float64(i)*0.01, audio.Tone{Frequency: 700, Duration: 0.02, Amplitude: 0.1})
		}
	}()
	for _, m := range append(ms, ms[0]) {
		m := m
		go func() {
			defer wg.Done()
			var buf *audio.Buffer
			for w := 0; w < 50; w++ {
				buf = m.CaptureInto(buf, float64(w)*0.01, float64(w)*0.01+0.05)
			}
		}()
	}
	wg.Wait()
}

func BenchmarkCaptureInto(b *testing.B) {
	_, mic := roomWith(testSchedule())
	buf := mic.CaptureInto(nil, 0, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = mic.CaptureInto(buf, 0.1, 0.15)
	}
}

func BenchmarkCaptureAllocating(b *testing.B) {
	_, mic := roomWith(testSchedule())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mic.Capture(0.1, 0.15)
	}
}
