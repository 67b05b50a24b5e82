package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"mdn/internal/acoustic"
	"mdn/internal/audio"
	"mdn/internal/netsim"
	"mdn/internal/telemetry"
)

// fleetRoom builds a room with n switches (speaker i at x=1+i/4 m,
// playing frequency 500+40i) and one microphone per switch, plus a
// detector template watching every fleet frequency. Tones start at
// 10 ms so they sit inside the [0, 65 ms) analysis window.
func fleetRoom(n int) (*acoustic.Room, []*acoustic.Microphone, *Detector) {
	room := acoustic.NewRoom(44100, 7)
	mics := make([]*acoustic.Microphone, n)
	freqs := make([]float64, n)
	for i := 0; i < n; i++ {
		name := "s" + itoa(i)
		sp := room.AddSpeaker(name, acoustic.Position{X: 1 + float64(i)*0.25})
		mics[i] = room.AddMicrophone("mic-"+name, acoustic.Position{Y: float64(i) * 0.1}, 0.0005)
		freqs[i] = 500 + 40*float64(i)
		sp.Play(0.010, audio.Tone{
			Frequency: freqs[i], Duration: 0.065,
			Amplitude: acoustic.SPLToAmplitude(60),
		})
	}
	det := NewDetector(MethodGoertzel, freqs)
	return room, mics, det
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

func runFleet(n, workers int) []Detection {
	_, mics, det := fleetRoom(n)
	f := NewFleet(det, workers)
	defer f.Close()
	for _, m := range mics {
		f.AddMicrophone(m)
	}
	dets := f.Analyse(0, 0.065)
	out := make([]Detection, len(dets))
	copy(out, dets)
	return out
}

func TestFleetMatchesSerialExactly(t *testing.T) {
	want := runFleet(8, 1)
	if len(want) == 0 {
		t.Fatal("serial fleet heard nothing")
	}
	for _, workers := range []int{2, 4, 8, 16} {
		got := runFleet(8, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d detections, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("workers=%d: detection %d = %+v, want %+v (bit-exact)",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestFleetAnalyseAfterCloseRunsSerially is the hand-off's lifecycle:
// a 4-worker fleet hands windows to its helpers, Close returns both
// while they spin for the next window and after they have exited on
// their own, the goroutine count falls back to its baseline, and the
// closed fleet keeps analysing on the serial path with the serial
// result.
func TestFleetAnalyseAfterCloseRunsSerially(t *testing.T) {
	want := runFleet(8, 1)
	for _, idle := range []time.Duration{0, 50 * spinBudget} {
		base := runtime.NumGoroutine()
		_, mics, det := fleetRoom(8)
		f := NewFleet(det, 4)
		for _, m := range mics {
			f.AddMicrophone(m)
		}
		for w := 0; w < 5; w++ {
			f.Analyse(0, 0.065)
		}
		// publish starts every helper that is not running.
		if f.workers > 1 && f.gen.Load() == 0 {
			t.Fatal("a multi-worker fleet never published a window to its helpers")
		}
		// 0 closes while helpers spin; 50 budgets is well past the spin,
		// so they have exited.
		time.Sleep(idle)
		f.Close()
		waitGoroutines(t, base, "idle "+idle.String()+": after Close")
		got := f.Analyse(0, 0.065)
		if len(got) != len(want) {
			t.Fatalf("idle %v: after Close: %d detections, want %d", idle, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("idle %v: after Close: detection %d = %+v, want %+v", idle, i, got[i], want[i])
			}
		}
		if runtime.NumGoroutine() > base {
			t.Errorf("idle %v: Analyse after Close started helpers again", idle)
		}
	}
}

// waitGoroutines fails the test unless the goroutine count falls to
// base within five seconds.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, baseline %d", what, runtime.NumGoroutine(), base)
		}
	}
}

// TestFleetIdleHelpersExit: a fleet that is never closed holds no
// goroutine once its helpers have been idle for the spin budget, and
// the next parallel window starts them again with an unchanged result.
// It runs a fleet of microphones and a split lone microphone.
func TestFleetIdleHelpersExit(t *testing.T) {
	for _, n := range []int{1, 8} {
		_, mics, det := fleetRoom(n)
		if n == 1 {
			det = NewDetector(MethodGoertzel, splitBank(130))
		}
		base := runtime.NumGoroutine()
		f := NewFleet(det, 4)
		for _, m := range mics {
			f.AddMicrophone(m)
		}
		want := append([]Detection(nil), f.Analyse(0, 0.065)...)
		for round := 0; round < 2; round++ {
			waitGoroutines(t, base, "an idle fleet that was never closed")
			got := f.Analyse(0, 0.065)
			if len(got) != len(want) {
				t.Fatalf("%d mics, round %d: %d detections, want %d", n, round, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d mics, round %d: detection %d = %+v, want %+v", n, round, i, got[i], want[i])
				}
			}
		}
		waitGoroutines(t, base, "an idle fleet that was never closed")
	}
}

// TestFleetStreamMatchesBatchWithSelfNoise: with noisy, unramped
// microphones, a 10 ms-hop stream and batch captures give identical
// detections, bit for bit, on every window of the batch grid. The
// self-noise is a function of the absolute sample index, so a window
// assembled from five hops holds the same samples as one capture.
func TestFleetStreamMatchesBatchWithSelfNoise(t *testing.T) {
	const windowN, hopN, rate = 2205, 441, 44100.0
	room, mics, det := fleetRoom(4)
	for i, m := range mics {
		m.SelfNoiseRMS = 0.002
		sp := room.Speaker("s" + itoa(i))
		for at := 0.1; at < 0.6; at += 0.07 {
			sp.Play(at+0.013*float64(i), audio.Tone{Frequency: 500 + 40*float64(i),
				Duration: 0.045, Amplitude: acoustic.SPLToAmplitude(55)})
		}
	}
	stream, batch := NewFleet(det, 4), NewFleet(det, 1)
	defer stream.Close()
	for _, m := range mics {
		stream.AddMicrophone(m)
		batch.AddMicrophone(m)
	}
	stream.setHop(windowN/rate, windowN, hopN)
	hop := hopN / rate
	heard := 0
	for k := 1; k <= 70; k++ {
		to := float64(k) * hop
		got, _, err := stream.analyse(to-hop, to)
		if err != nil {
			t.Fatal(err)
		}
		if k%(windowN/hopN) != 0 {
			continue
		}
		want := batch.Analyse(to-stream.streamWindow, to)
		if len(got) != len(want) {
			t.Fatalf("window ending %.3f s: stream %d detections, batch %d", to, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("window ending %.3f s: detection %d = %+v, batch %+v (bit-exact)",
					to, i, got[i], want[i])
			}
		}
		heard += len(want)
	}
	if heard < 20 {
		t.Fatalf("only %d detections over the grid windows", heard)
	}
}

// TestFleetLaneReprimesOnRejoin: a quarantined lane's ring is emptied,
// so after rejoining it holds a full window again only once a whole
// window of fresh hops has been appended.
func TestFleetLaneReprimesOnRejoin(t *testing.T) {
	_, mics, det := fleetRoom(2)
	f := NewFleet(det, 1)
	for _, m := range mics {
		f.AddMicrophone(m)
	}
	const windowN, hopN = 2205, 441
	f.setHop(windowN/44100.0, windowN, hopN)
	hop := hopN / 44100.0
	step := func(k int) {
		to := float64(k) * hop
		if _, _, err := f.analyse(to-hop, to); err != nil {
			t.Fatal(err)
		}
	}
	for k := 1; k <= 5; k++ {
		step(k)
	}
	f.SetQuarantined(1, true)
	step(6)
	f.SetQuarantined(1, false)
	for k := 7; k <= 11; k++ {
		step(k)
		if full := f.lanes[1].ring.Full(); full != (k == 11) {
			t.Fatalf("hop %d after rejoin: lane full = %v", k, full)
		}
	}
}

func TestFleetMergeOrderedByTimeThenFrequency(t *testing.T) {
	dets := runFleet(8, 4)
	for i := 1; i < len(dets); i++ {
		a, b := dets[i-1], dets[i]
		if a.Time > b.Time || (a.Time == b.Time && a.Frequency > b.Frequency) {
			t.Fatalf("merge out of order at %d: %+v before %+v", i, a, b)
		}
	}
}

func TestFleetHearsEveryVoice(t *testing.T) {
	const n = 8
	dets := runFleet(n, 4)
	heard := make(map[float64]bool)
	for _, d := range dets {
		heard[d.Frequency] = true
	}
	for i := 0; i < n; i++ {
		f := 500 + 40*float64(i)
		if !heard[f] {
			t.Errorf("voice at %g Hz never detected", f)
		}
	}
}

func TestFleetPicksUpTemplateWatchChanges(t *testing.T) {
	room, mics, det := fleetRoom(4)
	f := NewFleet(det, 4)
	defer f.Close()
	for _, m := range mics {
		f.AddMicrophone(m)
	}
	if dets := f.Analyse(0, 0.065); len(dets) == 0 {
		t.Fatal("fleet heard nothing")
	}
	// A new voice joins on a frequency the clones were not built with.
	sp := room.AddSpeaker("late", acoustic.Position{X: 0.5})
	sp.Play(1.010, audio.Tone{Frequency: 4000, Duration: 0.065,
		Amplitude: acoustic.SPLToAmplitude(60)})
	det.AddWatch(4000)
	found := false
	for _, d := range f.Analyse(1.0, 1.065) {
		if d.Frequency == 4000 {
			found = true
		}
	}
	if !found {
		t.Error("watch added to template not seen by fleet clones")
	}
}

func TestFleetSteadyStateAllocs(t *testing.T) {
	_, mics, det := fleetRoom(8)
	for _, workers := range []int{1, 4} {
		f := NewFleet(det, workers)
		for _, m := range mics {
			f.AddMicrophone(m)
		}
		f.Analyse(0, 0.050) // warm up clones, buffers, result slots
		f.Analyse(0.050, 0.100)
		win := 2
		allocs := testing.AllocsPerRun(50, func() {
			from := float64(win) * 0.050
			f.Analyse(from, from+0.050)
			win++
		})
		f.Close()
		if allocs != 0 {
			t.Errorf("workers=%d: steady-state Analyse allocates %.1f objects/op, want 0",
				workers, allocs)
		}
	}
}

func TestFleetTelemetryRendersThroughValidateText(t *testing.T) {
	_, mics, det := fleetRoom(4)
	f := NewFleet(det, 4)
	defer f.Close()
	reg := telemetry.New()
	f.Instrument(reg)
	for _, m := range mics {
		f.AddMicrophone(m)
	}
	for w := 0; w < 3; w++ {
		f.Analyse(float64(w)*0.050, float64(w)*0.050+0.050)
	}
	snap := reg.Snapshot()
	var buf bytes.Buffer
	if err := snap.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	text := buf.String()
	if err := telemetry.ValidateText(strings.NewReader(text)); err != nil {
		t.Fatalf("fleet metrics fail ValidateText: %v\n%s", err, text)
	}
	if !strings.Contains(text, "mdn_fleet_workers_busy 0") {
		t.Errorf("busy gauge missing or non-zero at rest:\n%s", text)
	}
	if !strings.Contains(text, "mdn_fleet_window_seconds_count 3") {
		t.Errorf("fan-out histogram did not record 3 windows:\n%s", text)
	}
}

func TestControllerFleetDispatchSemantics(t *testing.T) {
	// A fleet-backed controller must deliver one ordered batch per
	// window to window subscribers, exactly like the single-mic path.
	_, mics, det := fleetRoom(4)
	sim := netsim.NewSim()
	ctrl := NewController(sim, mics[0], det)
	f := ctrl.EnableFleet(4)
	defer f.Close()
	for _, m := range mics[1:] {
		f.AddMicrophone(m)
	}
	var batches [][]Detection
	ctrl.SubscribeWindows(func(start float64, dets []Detection) {
		cp := make([]Detection, len(dets))
		copy(cp, dets)
		batches = append(batches, cp)
	})
	ctrl.Start(0)
	sim.RunUntil(0.3)
	if ctrl.Windows == 0 {
		t.Fatal("controller analysed no windows")
	}
	total := 0
	for _, b := range batches {
		total += len(b)
		for i := 1; i < len(b); i++ {
			if b[i-1].Time > b[i].Time ||
				(b[i-1].Time == b[i].Time && b[i-1].Frequency > b[i].Frequency) {
				t.Fatalf("dispatched batch out of order: %+v before %+v", b[i-1], b[i])
			}
		}
	}
	if uint64(total) != ctrl.Detections {
		t.Errorf("subscribers saw %d detections, controller counted %d", total, ctrl.Detections)
	}
	if total == 0 {
		t.Error("fleet controller heard nothing")
	}
}

func TestSortDetectionsStable(t *testing.T) {
	in := []Detection{
		{Time: 2, Frequency: 500, Amplitude: 1},
		{Time: 1, Frequency: 700, Amplitude: 2},
		{Time: 1, Frequency: 500, Amplitude: 3},
		{Time: 1, Frequency: 500, Amplitude: 4}, // exact tie: stays after 3
		{Time: 0, Frequency: 900, Amplitude: 5},
	}
	sortDetections(in, make([]Detection, len(in)))
	want := []Detection{
		{Time: 0, Frequency: 900, Amplitude: 5},
		{Time: 1, Frequency: 500, Amplitude: 3},
		{Time: 1, Frequency: 500, Amplitude: 4},
		{Time: 1, Frequency: 700, Amplitude: 2},
		{Time: 2, Frequency: 500, Amplitude: 1},
	}
	for i := range want {
		if in[i] != want[i] {
			t.Fatalf("sorted[%d] = %+v, want %+v", i, in[i], want[i])
		}
	}
}

func TestSortDetectionsMatchesSliceStable(t *testing.T) {
	// The bottom-up merge must agree with the library's stable sort on
	// inputs big enough to exercise several merge levels, heavy with
	// exact ties. Amplitude carries the arrival index so stability
	// violations are visible.
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 31, 32, 33, 97, 1000} {
		in := make([]Detection, n)
		for i := range in {
			in[i] = Detection{
				Time:      float64(rng.Intn(4)),
				Frequency: float64(400 + 20*rng.Intn(8)),
				Amplitude: float64(i),
			}
		}
		want := make([]Detection, n)
		copy(want, in)
		sort.SliceStable(want, func(i, j int) bool { return detLess(want[i], want[j]) })
		sortDetections(in, make([]Detection, n))
		for i := range want {
			if in[i] != want[i] {
				t.Fatalf("n=%d: sorted[%d] = %+v, want %+v", n, i, in[i], want[i])
			}
		}
	}
}
