package experiments

import (
	"mdn/internal/netsim"
	"mdn/internal/openflow"
	"mdn/internal/scenario"
)

// ExtControlLatency quantifies the price of the sound channel: the
// time from a switch-side event (queue crossing the congestion
// threshold) to the corrective Flow-MOD being applied, for the MDN
// loop versus a conventional in-band Packet-In loop. The paper never
// reports this number; it is the first question the approach invites.
//
// The MDN loop pays: the 300 ms queue-sampling grid, the MP link to
// the Pi, acoustic propagation, up to two 50 ms detection windows for
// onset confirmation, and the control channel. The in-band loop pays
// one control-channel RTT. The experiment measures both on identical
// congestion events.
func ExtControlLatency() *Result {
	r := &Result{ID: "ext-latency", Title: "Control-loop latency: sound channel vs in-band"}
	const trials = 5

	// The MDN loop runs scenarios/controlloop.json, one seed a trial:
	// a 200 pps flow into a 1 Mbps port, and a balancer whose rule
	// drops the flow once it hears the congested tone. The event is
	// the queue crossing 75 packets, found from the ground-truth
	// series afterwards; it ends when the rule, sent once the window
	// that heard the congested tone is analysed, reaches the switch.
	runMDN := func(seed int64) float64 {
		w, _ := world("controlloop.json", func(c *scenario.Config) { c.Seed = seed })
		b := w.Apps[0].(scenario.Balancer)
		runWorld(w)
		var crossed float64 = -1
		for _, s := range b.QueueSeries {
			if s.Value > 75 {
				crossed = s.Time
				break
			}
		}
		lb := b.LoadBalancer
		if crossed < 0 || !lb.Installed {
			return -1
		}
		return lb.InstalledAt - crossed
	}

	runInband := func(seed int64) float64 {
		// In-band: the switch punts a congestion report packet to a
		// controller host over a healthy management link; the
		// controller replies with a Flow-MOD over the same 5 ms
		// channel. Latency = report tx + controller processing (~0)
		// + Flow-MOD latency.
		sim := netsim.NewSim()
		sw := netsim.NewSwitch(sim, "s1")
		ctrlHost := netsim.NewHost(sim, "ctrl", netsim.MustAddr("10.0.9.1"))
		netsim.Connect(sim, sw, 9, ctrlHost, 1, 1e8, 0.0025, 0) // 2.5 ms each way
		ch := openflow.NewChannel(sim, sw, 0.0025)
		var applied float64 = -1
		ctrlHost.OnReceive = func(*netsim.Packet) {
			if err := ch.SendFlowMod(openflow.FlowMod{
				Command: openflow.FlowAdd, Priority: 10, Action: netsim.Drop(),
			}); err != nil {
				panic(err)
			}
		}
		sim.Schedule(2.5, func() {
			// Rule application time is observable via the table.
			sw.Port(9).Send(&netsim.Packet{ID: 1, Size: 128, CreatedAt: sim.Now()})
		})
		sim.Every(2.5, 0.0001, func(now float64) {
			if applied < 0 && len(sw.Rules()) > 0 {
				applied = now
			}
		})
		sim.RunUntil(3)
		if applied < 0 {
			return -1
		}
		return applied - 2.5
	}

	var mdnSum, inbandSum float64
	mdnOK, inbandOK := true, true
	for i := int64(0); i < trials; i++ {
		m := runMDN(900 + i)
		ib := runInband(950 + i)
		if m < 0 {
			mdnOK = false
			continue
		}
		if ib < 0 {
			inbandOK = false
			continue
		}
		mdnSum += m
		inbandSum += ib
	}
	mdnMean := mdnSum / trials
	inbandMean := inbandSum / trials
	r.row("MDN control loop completes", "tone-driven Flow-MOD lands", mdnOK,
		"mean event-to-rule latency %.0f ms over %d trials", mdnMean*1000, trials)
	r.row("MDN latency dominated by the 300 ms sampling grid", "sub-second reaction",
		mdnMean > 0.03 && mdnMean < 1.0, "%.0f ms (sampling + MP + sound + 2 windows + control)", mdnMean*1000)
	r.row("in-band loop is far faster when the network is healthy", "milliseconds",
		inbandOK && inbandMean < 0.02 && mdnMean > 5*inbandMean,
		"in-band %.1f ms vs MDN %.0f ms (%.0fx)", inbandMean*1000, mdnMean*1000, mdnMean/inbandMean)
	r.note("worst case adds a full 300 ms sampling interval; the sound channel trades roughly an order of magnitude of control latency (more when the event falls just after a sample) for surviving data-plane failure (see ext-failover) — the management-timescale framing of §4 anticipates exactly this trade")
	return r
}
