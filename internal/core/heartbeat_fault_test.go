package core

import (
	"fmt"
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/netsim"
)

// alertDeadline is the worst case from a device's last heard beat to
// its alert: HeartbeatMissThreshold consecutive period checks must
// fail, the check phase adds up to one period, and detection latency a
// fraction more — (HeartbeatMissThreshold + 2) × Period in total.
func alertDeadline(hb *Heartbeat) float64 {
	return (HeartbeatMissThreshold + 2) * hb.Period
}

// TestHeartbeatUnderFaultInjection sweeps wire drop rates over the
// heartbeat pipeline with a device death mid-run. At every rate the
// monitor must raise the death alert within its documented
// alertDeadline of the death; at 0% it must raise exactly one alert
// and none before the death.
func TestHeartbeatUnderFaultInjection(t *testing.T) {
	const death = 6.0
	for _, drop := range []float64{0, 0.1, 0.3, 0.5} {
		drop := drop
		t.Run(fmt.Sprintf("drop=%.0f%%", 100*drop), func(t *testing.T) {
			tb := newTestbed(410)
			v := tb.voiceAt("s1", acoustic.Position{X: 1})
			if drop > 0 {
				v.Sounder().InjectFaults(netsim.Faults{DropProb: drop, Seed: 411})
			}
			hb := NewHeartbeat()
			f, err := hb.Register(tb.plan, "s1", v)
			if err != nil {
				t.Fatal(err)
			}
			ctrl := tb.controller(hb.Frequencies())
			hb.Start(ctrl, 0)
			ctrl.Start(0)
			ticker, err := hb.StartDevice(tb.sim, f, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			tb.sim.After(death, ticker.Stop)
			tb.sim.RunUntil(death + alertDeadline(hb) + 1)

			if drop == 0 {
				if len(hb.Alerts) != 1 {
					t.Fatalf("alerts = %+v, want exactly one at 0%% drop", hb.Alerts)
				}
				if hb.Alerts[0].Time < death {
					t.Errorf("false alarm at t=%g, before the death at t=%g", hb.Alerts[0].Time, death)
				}
			}
			// At every rate: some alert within the documented deadline
			// of the death. (Lossy runs may alert early — dropped beats
			// are indistinguishable from death, and that alert never
			// clears because no beat follows.)
			deadline := death + alertDeadline(hb)
			got := false
			for _, a := range hb.Alerts {
				if a.Time <= deadline {
					got = true
				}
			}
			if !got {
				t.Errorf("no alert by t=%g (deadline) at %.0f%% drop; alerts=%+v",
					deadline, 100*drop, hb.Alerts)
			}
		})
	}
}
