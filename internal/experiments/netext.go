package experiments

import (
	"mdn/internal/core"
	"mdn/internal/netsim"
	"mdn/internal/scenario"
)

// The network extensions run worlds that scenario.Build wires: each
// states its base world as a Config and attaches only its own twist to
// the returned World.

// ExtFailover demonstrates the paper's core motivation: when the data
// plane dies, in-band management messages die with it, but the sound
// channel keeps reporting. A switch streams queue telemetry both
// in-band (management packets over its uplink) and out-of-band
// (tones); the uplink is cut mid-run.
func ExtFailover() *Result {
	r := &Result{ID: "ext-failover", Title: "Management survives data-plane failure (Section 1 motivation)"}
	const cutAt = 5.0
	// s1's uplink, port 1, carries both data and in-band management to
	// the management host; a queue monitor reports the same port by
	// tone.
	w := buildWorld(&scenario.Config{
		Seed:      101,
		DurationS: 10,
		Switches:  []scenario.SwitchConfig{{Name: "s1", X: 1}},
		Hosts: []scenario.HostConfig{{Name: "mgmt", Addr: "10.0.0.100", Switch: "s1", Port: 1,
			RateMbps: 10, LatencyMs: 0.5, Queue: 100}},
		Rules: []scenario.RuleConfig{{Switch: "s1", Priority: 1, Dst: "10.0.0.100", Action: "output", Ports: []int{1}}},
		Apps:  []scenario.AppConfig{{Type: "queuemon", Switch: "s1", Port: 1}},
	})
	qm := w.Apps[0].(*core.QueueMonitor)
	mgmt, uplink := w.Hosts["mgmt"], w.Switches["s1"].Port(1)

	// Every 300 ms the switch reports BOTH ways: the queue tone (the
	// monitor's switch-side loop) and an in-band management packet,
	// which the switch originates itself, straight into the uplink.
	mgmtFlow := netsim.FiveTuple{
		Src: netsim.MustAddr("10.0.0.1"), Dst: mgmt.Addr,
		SrcPort: 9, DstPort: 161, Proto: netsim.ProtoUDP,
	}
	var inbandSent int
	w.Sim.Every(0.05, qm.SampleInterval, func(now float64) {
		inbandSent++
		uplink.Send(&netsim.Packet{ID: uint64(inbandSent), Flow: mgmtFlow, Size: 128, CreatedAt: now})
	})
	w.Sim.After(cutAt, func() { uplink.SetDown(true) })
	runWorld(w)

	// In-band reports received before/after the cut.
	preInband := int(mgmt.RxPackets)
	// Tones heard after the cut.
	var preTones, postTones int
	for _, h := range qm.Heard {
		if h.Time < cutAt {
			preTones++
		} else {
			postTones++
		}
	}
	r.row("in-band management before the cut", "reports flow", preInband > 10,
		"%d reports delivered", preInband)
	// All post-cut in-band reports must be lost: mgmt.RxPackets stops
	// growing at the cut.
	expectedPre := int(cutAt/qm.SampleInterval) + 1
	r.row("in-band management after the cut", "silenced by the data-plane failure",
		preInband <= expectedPre, "stuck at %d (≈%d sent before cut, %d sent total)",
		preInband, expectedPre, inbandSent)
	r.row("sound channel before the cut", "tones heard", preTones > 10, "%d tones", preTones)
	r.row("sound channel after the cut", "keeps reporting", postTones > 10, "%d tones", postTones)

	var xs, ys []float64
	freqs := qm.Frequencies()
	for _, h := range qm.Heard {
		xs = append(xs, h.Time)
		ys = append(ys, freqs[h.Level])
	}
	r.addSeries("out-of-band tones (Hz) — uninterrupted by the t=5 s cut", xs, ys)
	r.note("uplink cut at t=%.0f s; %d queued in-band reports flushed", cutAt, uplink.LostOnDown())
	return r
}

// ExtCongestion closes the Section 6 loop: AIMD rate control driven
// purely by queue tones, compared against no control at identical
// offered load.
func ExtCongestion() *Result {
	r := &Result{ID: "ext-congestion", Title: "Sound-driven congestion control (Section 6, in place of ECN/DCTCP)"}
	run := func(withControl bool) (drops uint64, delivered uint64, finalRate float64, rateLog []netsim.Sample) {
		// h1 paces a flow into s1's 1 Mbps port 2, towards h2; a queue
		// monitor reports that port by tone. Without control nobody
		// acts on the tones.
		w := buildWorld(&scenario.Config{
			Seed:      130,
			DurationS: 20,
			Switches:  []scenario.SwitchConfig{{Name: "s1", X: 1}},
			Hosts: []scenario.HostConfig{
				{Name: "h1", Addr: "10.0.0.1", Switch: "s1", Port: 1},
				{Name: "h2", Addr: "10.0.0.2", Switch: "s1", Port: 2, RateMbps: 1, Queue: 100},
			},
			Rules: []scenario.RuleConfig{{Switch: "s1", Priority: 1, Dst: "10.0.0.2", Action: "output", Ports: []int{2}}},
			Apps:  []scenario.AppConfig{{Type: "queuemon", Switch: "s1", Port: 2}},
		})
		h1, h2 := w.Hosts["h1"], w.Hosts["h2"]
		flow := netsim.FiveTuple{Src: h1.Addr, Dst: h2.Addr, SrcPort: 1, DstPort: 2, Proto: netsim.ProtoUDP}
		src := netsim.StartPaced(w.Sim, h1, flow, 250, 1500, 0.2, 20)
		var cc *core.CongestionController
		if withControl {
			cc = core.NewCongestionController(w.Apps[0].(*core.QueueMonitor), src)
			w.Controller().SubscribeWindows(cc.HandleWindow)
		}
		runWorld(w)
		if cc != nil {
			rateLog = cc.RateLog
		}
		return w.Switches["s1"].Port(2).Out.Drops(), h2.RxPackets, src.Rate(), rateLog
	}

	dropsNone, delivNone, _, _ := run(false)
	dropsCtl, delivCtl, rate, rateLog := run(true)
	r.row("uncontrolled source overflows the queue", "drop-tail losses", dropsNone > 500,
		"%d drops, %d delivered", dropsNone, delivNone)
	r.row("tone-driven AIMD cuts losses", "ECN-like reaction without touching the transport",
		dropsCtl*2 < dropsNone, "%d drops (%.1fx fewer), %d delivered",
		dropsCtl, ratio(float64(dropsNone), float64(dropsCtl+1)), delivCtl)
	r.row("rate converges toward capacity", "AIMD sawtooth around ~83 pps",
		rate > 20 && rate < 150, "final rate %.0f pps", rate)
	goodputRatio := float64(delivCtl) / float64(delivNone)
	r.row("goodput preserved", "control does not starve the flow", goodputRatio > 0.85,
		"%.0f%% of uncontrolled goodput", goodputRatio*100)

	var xs, ys []float64
	for _, s := range rateLog {
		xs = append(xs, s.Time)
		ys = append(ys, s.Value)
	}
	r.addSeries("controlled send rate (pps) — AIMD sawtooth", xs, ys)
	return r
}

// ExtHeartbeat demonstrates out-of-band device liveness: switches
// beat their own tones; a dead device is noticed within a few missed
// beats, with no network path to it at all.
func ExtHeartbeat() *Result {
	r := &Result{ID: "ext-heartbeat", Title: "Out-of-band device liveness (heartbeat tones)"}
	w := buildWorld(&scenario.Config{
		Seed:      160,
		DurationS: 15,
		Switches:  []scenario.SwitchConfig{{Name: "s1", X: 1}, {Name: "s2", X: -1.5}},
		Apps:      []scenario.AppConfig{{Type: "heartbeat", Switch: "s1"}, {Type: "heartbeat", Switch: "s2"}},
	})
	hb := w.Apps[0].(*core.Heartbeat)
	// s1 dies: its voice goes mute while its beat loop keeps firing.
	const dieAt = 6.0
	w.Sim.After(dieAt, func() { w.Voice("s1").SetMuted(true) })
	runWorld(w)

	r.row("live devices beat audibly", "one tone per device per period",
		hb.BeatsOf("s1") >= 4 && hb.BeatsOf("s2") >= 12,
		"s1: %d beats before death, s2: %d beats", hb.BeatsOf("s1"), hb.BeatsOf("s2"))
	r.row("dead device alerted", "silence noticed after the miss threshold",
		len(hb.Alerts) == 1 && hb.Alerts[0].Device == "s1",
		"%d alert(s): %+v", len(hb.Alerts), hb.Alerts)
	if len(hb.Alerts) == 1 {
		lag := hb.Alerts[0].Time - dieAt
		r.row("detection latency", "threshold x period",
			lag > 2 && lag < 5.5, "%.1f s after death (threshold %d x %.0f s)",
			lag, core.HeartbeatMissThreshold, hb.Period)
	}
	r.note("no packets are exchanged with the monitored devices at any point")
	return r
}
