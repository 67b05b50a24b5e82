package core

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/audio"
	"mdn/internal/mp"
	"mdn/internal/netsim"
	"mdn/internal/telemetry"
)

// deviceRig is the self-healing test bench: a controller with a
// two-microphone fleet, one speaker beating at 700 Hz every 300 ms,
// and a device monitor.
type deviceRig struct {
	sim  *netsim.Sim
	room *acoustic.Room
	mics []*acoustic.Microphone
	sp   *acoustic.Speaker
	ctrl *Controller
	mon  *DeviceMonitor
}

const (
	devBeatFreq   = 700.0
	devBeatPeriod = 0.3
)

// scheduleBeats pre-schedules 700 Hz beats every 300 ms until the
// given horizon. Speaker ramps must be scheduled BEFORE calling this:
// Play evaluates the degradation ramps at each tone's start time.
func (r *deviceRig) scheduleBeats(until float64) {
	for t := 0.1; t < until; t += devBeatPeriod {
		r.sp.Play(t, audio.Tone{
			Frequency: devBeatFreq, Duration: 0.065,
			Amplitude: acoustic.SPLToAmplitude(60),
		})
	}
}

func newDeviceRig(fleetMics int) *deviceRig {
	r := &deviceRig{sim: netsim.NewSim(), room: acoustic.NewRoom(44100, 7)}
	r.sp = r.room.AddSpeaker("s1", acoustic.Position{X: 1})
	for i := 0; i < fleetMics; i++ {
		r.mics = append(r.mics, r.room.AddMicrophone(
			"m"+itoa(i), acoustic.Position{Y: float64(i)}, 0.0005))
	}
	det := NewDetector(MethodGoertzel, []float64{devBeatFreq})
	r.ctrl = NewController(r.sim, r.mics[0], det)
	if fleetMics > 1 {
		f := r.ctrl.EnableFleet(2)
		for _, m := range r.mics[1:] {
			f.AddMicrophone(m)
		}
	}
	r.mon = r.ctrl.EnableDeviceMonitor()
	return r
}

func deviceByName(snap []DeviceHealth, name string) DeviceHealth {
	for _, d := range snap {
		if d.Name == name {
			return d
		}
	}
	return DeviceHealth{}
}

// TestDeviceMonitorQuarantinesAndRejoinsNoisyMic is the drift e2e:
// one fleet microphone's noise floor ramps up mid-run, the monitor
// recalibrates its threshold, quarantines it when it stops hearing
// the beats its peer hears, keeps detecting on the remaining
// microphone, and readmits it after the fault clears.
func TestDeviceMonitorQuarantinesAndRejoinsNoisyMic(t *testing.T) {
	r := newDeviceRig(2)
	// Fault: m1's noise floor climbs to 0.5 RMS (bin level ~0.015,
	// swamping the ~0.022 received beat), then clears.
	r.mics[1].ScheduleNoiseRamp(1.5, 2.0, 0.5)
	r.mics[1].ScheduleNoiseRamp(5.0, 5.5, 0.0005)
	r.scheduleBeats(12)

	var detWindows []float64 // window starts that carried detections
	r.ctrl.SubscribeWindows(func(start float64, dets []Detection) {
		if len(dets) > 0 {
			detWindows = append(detWindows, start)
		}
	})
	r.ctrl.Start(0)

	r.sim.RunUntil(4.5)
	if !r.ctrl.fleet.quarantined[1] {
		t.Fatalf("m1 not quarantined at t=4.5; devices = %+v", r.mon.Snapshot())
	}
	if n := r.mon.MicsQuarantined(); n != 1 {
		t.Fatalf("MicsQuarantined = %d, want 1", n)
	}
	h := r.ctrl.Health()
	if h.State != Degraded {
		t.Fatalf("health during quarantine = %s (reasons %v), want degraded", h.StateName, h.Reasons)
	}
	found := false
	for _, reason := range h.Reasons {
		if strings.Contains(reason, "microphone") {
			found = true
		}
	}
	if !found {
		t.Errorf("no microphone reason in %v", h.Reasons)
	}
	if d := deviceByName(h.Devices, "m1"); d.State != "deaf" || d.Recalibrations == 0 {
		t.Errorf("m1 mid-fault = %+v, want deaf with recalibrations", d)
	}

	r.sim.RunUntil(12)
	if r.ctrl.fleet.quarantined[1] {
		t.Fatalf("m1 still quarantined at t=12; devices = %+v", r.mon.Snapshot())
	}
	end := r.ctrl.Health()
	if end.State != Healthy {
		t.Errorf("end health = %s (reasons %v), want healthy", end.StateName, end.Reasons)
	}
	d := deviceByName(end.Devices, "m1")
	if d.Quarantines == 0 || d.Rejoins == 0 || d.Recalibrations < 2 {
		t.Errorf("m1 lifecycle counters = %+v, want quarantine+rejoin+recalibrations", d)
	}
	if d.State != "healthy" {
		t.Errorf("m1 end state = %s, want healthy", d.State)
	}
	// Detection never stopped: the healthy microphone carried the
	// fleet through the whole quarantine.
	during := 0
	for _, w := range detWindows {
		if w >= 3.5 && w <= 5.0 {
			during++
		}
	}
	if during == 0 {
		t.Error("no detections while m1 was quarantined — failover did not hold")
	}
}

// TestDeviceMonitorRekeysDetunedSpeakerAndHeals is the detune e2e: the
// speaker drifts to 1.04× its commanded frequency, the monitor finds
// the shifted tone on the detune grid, re-keys (watches 728 Hz,
// rewrites detections back to 700 Hz), and retires the re-key when the
// speaker comes back in tune.
func TestDeviceMonitorRekeysDetunedSpeakerAndHeals(t *testing.T) {
	r := newDeviceRig(1)
	r.mon.WatchSpeaker("s1", nil, devBeatFreq)
	// Ramps first (Play evaluates them at each tone's start time).
	r.sp.ScheduleDetune(2.0, 2.5, 1.04)
	r.sp.ScheduleDetune(6.0, 6.5, 1.0)
	r.scheduleBeats(12)

	var rewritten []float64 // times of 700 Hz detections
	r.ctrl.SubscribeWindows(func(start float64, dets []Detection) {
		for _, d := range dets {
			if d.Frequency == devBeatFreq {
				rewritten = append(rewritten, start)
			}
		}
	})
	r.ctrl.Start(0)

	r.sim.RunUntil(5)
	mid := deviceByName(r.mon.Snapshot(), "s1")
	if mid.State != "detuned" || mid.Rekeys != 1 {
		t.Fatalf("s1 mid-fault = %+v, want detuned with 1 rekey", mid)
	}
	if math.Abs(mid.DetuneRatio-1.04) > 1e-9 {
		t.Errorf("detune ratio = %g, want 1.04", mid.DetuneRatio)
	}
	h := r.ctrl.Health()
	if h.State != Degraded {
		t.Errorf("health while detuned = %s (reasons %v), want degraded", h.StateName, h.Reasons)
	}
	// Post-re-key, subscribers still see the COMMANDED frequency.
	post := 0
	for _, w := range rewritten {
		if w >= 3.5 && w <= 5.0 {
			post++
		}
	}
	if post == 0 {
		t.Error("no 700 Hz detections after re-key — rewrite not applied")
	}

	r.sim.RunUntil(12)
	end := deviceByName(r.mon.Snapshot(), "s1")
	if end.State != "healthy" || end.DetuneRatio != 0 {
		t.Errorf("s1 after heal = %+v, want healthy with re-key retired", end)
	}
	if hh := r.ctrl.Health(); hh.State != Healthy {
		t.Errorf("end health = %s (reasons %v), want healthy", hh.StateName, hh.Reasons)
	}
}

// TestDeviceMonitorMutesDeadSpeaker: a speaker that decays to nothing
// is probed, found gone, and its voice muted so it stops burning the
// shared channel.
func TestDeviceMonitorMutesDeadSpeaker(t *testing.T) {
	r := newDeviceRig(1)
	r.sp.ScheduleAmplitudeDecay(2.0, 2.5, 0)

	voice := NewVoice(r.sim, mp.NewSounder(mp.NewPi(r.sim, r.sp, 0.002)))
	r.mon.WatchSpeaker("s1", voice, devBeatFreq)
	r.sim.Every(0.1, devBeatPeriod, func(now float64) { voice.Play(devBeatFreq) })
	r.ctrl.Start(0)
	r.sim.RunUntil(8)

	d := deviceByName(r.mon.Snapshot(), "s1")
	if d.State != "silent" || !d.Muted {
		t.Fatalf("s1 = %+v, want silent and muted", d)
	}
	if !voice.Muted() || voice.Suppressed == 0 {
		t.Errorf("voice muted=%v suppressed=%d, want muted with suppressed beats",
			voice.Muted(), voice.Suppressed)
	}
	if h := r.ctrl.Health(); h.State != Degraded {
		t.Errorf("health = %s (reasons %v), want degraded", h.StateName, h.Reasons)
	}
}

// TestDeviceMonitorStreamQuarantineAndRejoin runs the same drift fault
// through the streaming pipeline: the quarantined pipe sits hops out,
// onsets keep flowing from the healthy microphone, and the pipe
// re-primes on rejoin.
func TestDeviceMonitorStreamQuarantineAndRejoin(t *testing.T) {
	r := newDeviceRig(2)
	r.mics[1].ScheduleNoiseRamp(1.5, 2.0, 0.5)
	r.mics[1].ScheduleNoiseRamp(5.0, 5.5, 0.0005)
	r.scheduleBeats(12)
	r.ctrl.StartStream(0, r.ctrl.Window)

	r.sim.RunUntil(4.2)
	if r.mon.MicsQuarantined() != 1 {
		t.Fatalf("stream path did not quarantine m1; devices = %+v", r.mon.Snapshot())
	}
	onsetsAt4 := r.ctrl.Stream().Onsets
	r.sim.RunUntil(5.0)
	if got := r.ctrl.Stream().Onsets; got <= onsetsAt4 {
		t.Errorf("onsets stalled during quarantine: %d at t=4, %d at t=5", onsetsAt4, got)
	}
	r.sim.RunUntil(12)
	if r.mon.MicsQuarantined() != 0 {
		t.Fatalf("m1 never rejoined on the stream path; devices = %+v", r.mon.Snapshot())
	}
	if d := deviceByName(r.mon.Snapshot(), "m1"); d.Rejoins == 0 || d.State != "healthy" {
		t.Errorf("m1 = %+v, want healthy with a rejoin", d)
	}
}

// TestStreamKeepsHandleAcrossRekey: a re-key on a running stream
// edits the live watch list in place, so the controller keeps the
// handle StartStream returned, and at hop == window that handle counts
// every analysed window.
func TestStreamKeepsHandleAcrossRekey(t *testing.T) {
	r := newDeviceRig(1)
	r.mon.WatchSpeaker("s1", nil, devBeatFreq)
	r.sp.ScheduleDetune(2.0, 2.5, 1.04)
	r.scheduleBeats(6)
	s := r.ctrl.StartStream(0, r.ctrl.Window)
	r.sim.RunUntil(6)
	if d := deviceByName(r.mon.Snapshot(), "s1"); d.Rekeys != 1 {
		t.Fatalf("s1 = %+v, want one re-key", d)
	}
	if r.ctrl.Stream() != s {
		t.Fatal("re-key replaced the stream handle")
	}
	if s.Hops != r.ctrl.Windows {
		t.Errorf("stream hops = %d, controller windows = %d", s.Hops, r.ctrl.Windows)
	}
}

// runQuarantinedFleet analyses with the given microphones quarantined
// and returns a copy of the merged detections. hopN == 0 analyses one
// batch window. hopN > 0 streams 50 ms windows by hopN-sample hops over
// 0.2 s and holds the quarantine only for hops closing in (35, 135) ms,
// so quarantined lanes sit hops out, then rejoin and re-prime.
func runQuarantinedFleet(n, workers int, quar []int, hopN int) []Detection {
	_, mics, det := fleetRoom(n)
	f := NewFleet(det, workers)
	defer f.Close()
	for _, m := range mics {
		f.AddMicrophone(m)
	}
	if hopN > 0 {
		return streamQuarantinedFleet(f, quar, hopN)
	}
	for _, i := range quar {
		f.SetQuarantined(i, true)
	}
	dets := f.Analyse(0, 0.065)
	out := make([]Detection, len(dets))
	copy(out, dets)
	return out
}

func streamQuarantinedFleet(f *Fleet, quar []int, hopN int) []Detection {
	const windowN, rate = 2205, 44100.0
	f.setHop(windowN/rate, windowN, hopN)
	hop := float64(hopN) / rate
	var out []Detection
	for k := 1; k*hopN <= 4*windowN; k++ {
		to := float64(k) * hop
		for _, i := range quar {
			f.SetQuarantined(i, to > 0.035 && to < 0.135)
		}
		dets, _, _ := f.analyse(to-hop, to)
		out = append(out, dets...)
	}
	return out
}

// TestFleetQuarantineByteIdenticalAcrossWorkers pins the determinism
// contract under failover: with any subset of microphones quarantined,
// the merged detections are bit-exact at every worker count — on the
// batch path and on streams at hop < window and hop == window, where
// the quarantine flips mid-stream.
func TestFleetQuarantineByteIdenticalAcrossWorkers(t *testing.T) {
	const n = 8
	for _, hopN := range []int{0, 441, 2205} {
		full := runQuarantinedFleet(n, 1, nil, hopN)
		if len(full) == 0 {
			t.Fatalf("hopN=%d: fleet heard nothing", hopN)
		}
		subsets := [][]int{{0}, {3}, {0, 2}, {1, 2, 3, 4, 5, 6}, {0, 1, 2, 3, 4, 5, 6}}
		for _, quar := range subsets {
			want := runQuarantinedFleet(n, 1, quar, hopN)
			if len(want) >= len(full) {
				t.Fatalf("hopN=%d: quarantining %v did not shrink the merge (%d vs %d)",
					hopN, quar, len(want), len(full))
			}
			for _, workers := range []int{2, 4, 8} {
				got := runQuarantinedFleet(n, workers, quar, hopN)
				if len(got) != len(want) {
					t.Fatalf("hopN=%d quar=%v workers=%d: %d detections, want %d",
						hopN, quar, workers, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("hopN=%d quar=%v workers=%d: detection %d = %+v, want %+v (bit-exact)",
							hopN, quar, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestFleetQuarantineFlipsConcurrentWithAnalyse drives SetQuarantined
// from another goroutine while windows analyse — the -race exercise
// for the quarantine lock.
func TestFleetQuarantineFlipsConcurrentWithAnalyse(t *testing.T) {
	_, mics, det := fleetRoom(6)
	f := NewFleet(det, 4)
	defer f.Close()
	for _, m := range mics {
		f.AddMicrophone(m)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			f.SetQuarantined(1+i%4, i%2 == 0)
			i++
		}
	}()
	for w := 0; w < 200; w++ {
		from := float64(w) * 0.050
		f.Analyse(from, from+0.050)
	}
	close(stop)
	wg.Wait()
}

// TestDeviceMonitorSteadyStateAllocs pins the drift tracker's hot
// path: a healthy monitored fleet window — capture, calibrated detect,
// ObserveMic, finishWindow fold — allocates nothing.
func TestDeviceMonitorSteadyStateAllocs(t *testing.T) {
	r := newDeviceRig(2)
	r.mon.WatchSpeaker("s1", nil, devBeatFreq)
	r.scheduleBeats(120)
	// Warm up through two full beat cycles: detector clones, result
	// slots, the detected-set map, and speaker fingerprint entries.
	win := 0
	for ; win < 16; win++ {
		from := float64(win) * 0.050
		r.ctrl.analyse(from, from+0.050)
	}
	allocs := testing.AllocsPerRun(100, func() {
		from := float64(win) * 0.050
		r.ctrl.analyse(from, from+0.050)
		win++
	})
	if allocs != 0 {
		t.Errorf("steady-state monitored window allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkDeviceMonitorSteadyState times the drift-tracker path
// TestDeviceMonitorSteadyStateAllocs holds to 0 allocs/op.
func BenchmarkDeviceMonitorSteadyState(b *testing.B) {
	r := newDeviceRig(2)
	r.mon.WatchSpeaker("s1", nil, devBeatFreq)
	r.scheduleBeats(float64(b.N+32)*0.050 + 1)
	win := 0
	for ; win < 16; win++ {
		from := float64(win) * 0.050
		r.ctrl.analyse(from, from+0.050)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := float64(win) * 0.050
		r.ctrl.analyse(from, from+0.050)
		win++
	}
}

// TestDeviceMonitorTelemetryRendersThroughValidateText: the
// mdn_device_* series render and parse.
func TestDeviceMonitorTelemetryRendersThroughValidateText(t *testing.T) {
	r := newDeviceRig(2)
	reg := telemetry.New()
	r.ctrl.Instrument(reg)
	mon := r.ctrl.DeviceMonitor()
	mon.Instrument(reg)
	mon.WatchSpeaker("s1", nil, devBeatFreq)
	r.scheduleBeats(2)
	r.ctrl.Start(0)
	r.sim.RunUntil(2)

	var buf bytes.Buffer
	if err := reg.Snapshot().WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	text := buf.String()
	if err := telemetry.ValidateText(strings.NewReader(text)); err != nil {
		t.Fatalf("device metrics fail ValidateText: %v\n%s", err, text)
	}
	for _, want := range []string{
		`mdn_device_state{kind="mic",name="m0"}`,
		`mdn_device_state{kind="mic",name="m1"}`,
		`mdn_device_state{kind="speaker",name="s1"}`,
		`mdn_device_noise_floor{mic="m0"}`,
		"mdn_device_transitions_total",
		"mdn_device_recalibrations_total",
		"mdn_device_quarantines_total",
		"mdn_device_rejoins_total",
		"mdn_device_rekeys_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %s in:\n%s", want, text)
		}
	}
}
