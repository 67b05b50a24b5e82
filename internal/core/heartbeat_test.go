package core

import (
	"fmt"
	"math"
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/netsim"
)

func TestHeartbeatDetectsDeath(t *testing.T) {
	tb := newTestbed(400)
	v1 := tb.voiceAt("s1", acoustic.Position{X: 1})
	v2 := tb.voiceAt("s2", acoustic.Position{X: -1})

	hb := NewHeartbeat()
	f1, err := hb.Register(tb.plan, "s1", v1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := hb.Register(tb.plan, "s2", v2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := tb.controller(hb.Frequencies())
	hb.Start(ctrl, 0)
	ctrl.Start(0)

	t1, err := hb.StartDevice(tb.sim, f1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hb.StartDevice(tb.sim, f2, 0.7); err != nil {
		t.Fatal(err)
	}
	// s1 dies at t=5.
	tb.sim.After(5, t1.Stop)
	tb.sim.RunUntil(12)

	if len(hb.Alerts) != 1 {
		t.Fatalf("alerts = %+v, want exactly one", hb.Alerts)
	}
	a := hb.Alerts[0]
	if a.Device != "s1" {
		t.Errorf("alerted device = %s", a.Device)
	}
	if a.Time < 5+HeartbeatMissThreshold*hb.Period-1 || a.Time > 5+(HeartbeatMissThreshold+2)*hb.Period {
		t.Errorf("alert at %g, want ~%g", a.Time, 5+HeartbeatMissThreshold*hb.Period)
	}
	if hb.BeatsOf("s1") < 3 || hb.BeatsOf("s2") < 9 {
		t.Errorf("beats: s1=%d s2=%d", hb.BeatsOf("s1"), hb.BeatsOf("s2"))
	}
}

func TestHeartbeatNoFalseAlerts(t *testing.T) {
	tb := newTestbed(401)
	v := tb.voiceAt("s1", acoustic.Position{X: 1})
	hb := NewHeartbeat()
	f, err := hb.Register(tb.plan, "s1", v)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := tb.controller(hb.Frequencies())
	hb.Start(ctrl, 0)
	ctrl.Start(0)
	if _, err := hb.StartDevice(tb.sim, f, 0.2); err != nil {
		t.Fatal(err)
	}
	tb.sim.RunUntil(15)
	if len(hb.Alerts) != 0 {
		t.Errorf("healthy device raised %d alerts", len(hb.Alerts))
	}
}

func TestHeartbeatAlertOnceUntilRecovery(t *testing.T) {
	tb := newTestbed(402)
	v := tb.voiceAt("s1", acoustic.Position{X: 1})
	hb := NewHeartbeat()
	f, err := hb.Register(tb.plan, "s1", v)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := tb.controller(hb.Frequencies())
	hb.Start(ctrl, 0)
	ctrl.Start(0)
	tick, err := hb.StartDevice(tb.sim, f, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Die at 3s, recover at 10s (new ticker), die again at 15s.
	tb.sim.After(3, tick.Stop)
	tb.sim.After(10, func() {
		if _, err := hb.StartDevice(tb.sim, f, tb.sim.Now()+0.1); err != nil {
			t.Error(err)
		}
	})
	var tick2 *netsim.Ticker
	tb.sim.After(10.5, func() { tick2 = hb.devices[f].ticker })
	tb.sim.After(15, func() {
		if tick2 != nil {
			tick2.Stop()
		}
	})
	tb.sim.RunUntil(25)
	if len(hb.Alerts) != 2 {
		t.Fatalf("alerts = %+v, want 2 (one per death)", hb.Alerts)
	}
}

// TestHeartbeatSimultaneousAlertsInRegistrationOrder: when several
// devices miss the same check, their alerts come out in registration
// order on every run, not in map iteration order.
func TestHeartbeatSimultaneousAlertsInRegistrationOrder(t *testing.T) {
	const devices = 8
	for run := 0; run < 20; run++ {
		tb := newTestbed(403)
		hb := NewHeartbeat()
		var want []string
		var freqs []float64
		for i := 0; i < devices; i++ {
			name := fmt.Sprintf("s%d", i)
			a := 2 * math.Pi * float64(i) / devices
			v := tb.voiceAt(name, acoustic.Position{X: math.Cos(a), Y: math.Sin(a)})
			f, err := hb.Register(tb.plan, name, v)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, name)
			freqs = append(freqs, f)
		}
		ctrl := tb.controller(hb.Frequencies())
		hb.Start(ctrl, 0)
		ctrl.Start(0)
		for _, f := range freqs {
			tk, err := hb.StartDevice(tb.sim, f, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			tb.sim.After(3, tk.Stop) // every device dies at once
		}
		tb.sim.RunUntil(3 + alertDeadline(hb))

		var got []string
		for _, a := range hb.Alerts {
			got = append(got, a.Device)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d: alert order %v, want registration order %v", run, got, want)
		}
	}
}

func TestHeartbeatUnknownFrequency(t *testing.T) {
	tb := newTestbed(403)
	hb := NewHeartbeat()
	if _, err := hb.StartDevice(tb.sim, 999, 0); err == nil {
		t.Fatal("unknown frequency accepted")
	}
	if hb.BeatsOf("ghost") != 0 {
		t.Error("unknown device should have zero beats")
	}
}
