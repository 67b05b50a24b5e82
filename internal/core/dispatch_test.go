package core

import (
	"fmt"
	"math"
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/audio"
	"mdn/internal/mp"
	"mdn/internal/netsim"
	"mdn/internal/openflow"
)

// dispatchBed is one controller with several PortKnocks and a Heartbeat
// subscribed, and a schedule of knocks and beats that start and stop,
// played straight onto the speakers so that stepping the controller
// runs capture, detection and window dispatch and nothing else.
type dispatchBed struct {
	ctrl  *Controller
	knock []*PortKnock
	hb    *Heartbeat
	step  func() // analyse the next window (batch) or hop (stream)
}

const (
	dispatchKnocks  = 4
	dispatchDevices = 4
	dispatchCycle   = 2.0 // seconds; the whole schedule repeats every 2 cycles
)

// newDispatchBed schedules tones up to horizon seconds and starts the
// controller on the batch window loop (hop == 0) or on a stream.
func newDispatchBed(tb testing.TB, hop, horizon float64) *dispatchBed {
	tb.Helper()
	bed := newTestbed(29)
	tone := func(sp *acoustic.Speaker, at, f float64) {
		sp.Play(at, audio.Tone{Frequency: f, Duration: 0.120, Amplitude: acoustic.SPLToAmplitude(60)})
	}
	voice := func(name string, pos acoustic.Position) (*acoustic.Speaker, *Voice) {
		sp := bed.room.AddSpeaker(name, pos)
		return sp, NewVoice(bed.sim, mp.NewSounder(mp.NewPi(bed.sim, sp, 0.002)))
	}
	d := &dispatchBed{hb: NewHeartbeat()}
	var watch []float64
	for k := 0; k < dispatchKnocks; k++ {
		name := fmt.Sprintf("s%d", k)
		a := 2 * math.Pi * float64(k) / dispatchKnocks
		sp, v := voice(name, acoustic.Position{X: 1.5 * math.Cos(a), Y: 1.5 * math.Sin(a)})
		ch := openflow.NewChannel(bed.sim, netsim.NewSwitch(bed.sim, name), 0.005)
		pk, err := NewPortKnock(bed.plan, name, v, ch, []uint16{1001, 1002, 1003}, openflow.FlowMod{Command: openflow.FlowAdd})
		if err != nil {
			tb.Fatal(err)
		}
		freqs := pk.Frequencies()
		watch = append(watch, freqs...)
		// Even cycles knock in order (accepted), odd cycles in reverse
		// (wrong knocks reset the machine).
		for c := 0; float64(c)*dispatchCycle < horizon; c++ {
			at := float64(c)*dispatchCycle + 0.1*float64(k)
			for i := range freqs {
				f := freqs[i]
				if c%2 == 1 {
					f = freqs[len(freqs)-1-i]
				}
				tone(sp, at+0.3*float64(i), f)
			}
		}
		d.knock = append(d.knock, pk)
	}
	for i := 0; i < dispatchDevices; i++ {
		name := fmt.Sprintf("hb%d", i)
		sp, v := voice(name, acoustic.Position{X: -2, Y: float64(i) - 1.5})
		f, err := d.hb.Register(bed.plan, name, v)
		if err != nil {
			tb.Fatal(err)
		}
		watch = append(watch, f)
		// Device i beats every half second but falls silent for a whole
		// cycle every other cycle, out of phase with its neighbour.
		for c := 0; float64(c)*dispatchCycle < horizon; c++ {
			if (c+i)%2 == 1 {
				continue
			}
			for b := 0; b < 4; b++ {
				tone(sp, float64(c)*dispatchCycle+0.05+0.5*float64(b)+0.07*float64(i), f)
			}
		}
	}
	d.ctrl = bed.controller(watch)
	for _, pk := range d.knock {
		d.ctrl.SubscribeWindows(pk.HandleWindow)
	}
	d.ctrl.SubscribeWindows(d.hb.HandleWindow)

	if hop == 0 {
		next := d.ctrl.Window
		d.step = func() {
			d.ctrl.analyse(next-d.ctrl.Window, next)
			next += d.ctrl.Window
		}
		return d
	}
	s := d.ctrl.StartStream(0, hop)
	next := hop
	d.step = func() {
		s.step(next-hop, next)
		next += hop
	}
	return d
}

// onsets totals the onsets every subscribed application's filter has
// confirmed.
func (d *dispatchBed) onsets() uint64 {
	n := d.hb.onset.Onsets
	for _, pk := range d.knock {
		n += pk.onset.Onsets
	}
	return n
}

// warmUp steps through two full schedule periods, so every scratch
// buffer and state table has grown to its working set.
func (d *dispatchBed) warmUp(hop float64) {
	if hop == 0 {
		hop = DefaultWindow
	}
	for i := 0; float64(i)*hop < 4*dispatchCycle; i++ {
		d.step()
	}
}

var dispatchModes = []struct {
	name string
	hop  float64
}{
	{"batch", 0},
	{"hop=10ms", 0.010},
}

// TestWindowDispatchSteadyStateAllocs requires zero allocations per
// window (batch) or hop (stream) with several onset-filtered apps
// subscribed while their tones start and stop — the dispatch half of
// the per-window budget that TestStreamSteadyStateAllocs, with its
// single no-op subscriber and steady tone, does not reach.
func TestWindowDispatchSteadyStateAllocs(t *testing.T) {
	for _, mode := range dispatchModes {
		t.Run(mode.name, func(t *testing.T) {
			d := newDispatchBed(t, mode.hop, 40)
			d.warmUp(mode.hop)
			before := d.onsets()
			// As in TestStreamSteadyStateAllocs, any clean trial proves
			// the path allocation-free.
			allocs := math.Inf(1)
			for trial := 0; trial < 3 && allocs != 0; trial++ {
				if got := testing.AllocsPerRun(100, d.step); got < allocs {
					allocs = got
				}
			}
			if allocs != 0 {
				t.Errorf("window dispatch allocates %g/op in steady state, want 0", allocs)
			}
			if d.onsets() == before {
				t.Error("no onsets confirmed while measuring: the schedule does not exercise the apps")
			}
			for _, pk := range d.knock {
				if pk.Accepts() == 0 || pk.WrongKnocks == 0 {
					t.Errorf("knock FSM accepts=%d wrong=%d, want both exercised", pk.Accepts(), pk.WrongKnocks)
				}
			}
			for i := 0; i < dispatchDevices; i++ {
				if name := fmt.Sprintf("hb%d", i); d.hb.BeatsOf(name) == 0 {
					t.Errorf("no beats of %s heard", name)
				}
			}
		})
	}
}

// BenchmarkWindowDispatch measures one steady-state window (batch) or
// hop (stream) of the dispatch bed: capture, detection and the
// onset-filtered fan-out to four PortKnocks and a Heartbeat;
// TestWindowDispatchSteadyStateAllocs holds it to 0 allocs/op.
func BenchmarkWindowDispatch(b *testing.B) {
	for _, mode := range dispatchModes {
		b.Run(mode.name, func(b *testing.B) {
			hop := mode.hop
			if hop == 0 {
				hop = DefaultWindow
			}
			d := newDispatchBed(b, mode.hop, 4*dispatchCycle+float64(b.N+1)*hop)
			d.warmUp(mode.hop)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.step()
			}
		})
	}
}
