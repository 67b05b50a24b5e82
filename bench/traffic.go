package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"

	"mdn/internal/acoustic"
	"mdn/internal/core"
	"mdn/internal/mp"
	"mdn/internal/netsim"
	"mdn/internal/openflow"
)

// The packet-path world of the traffic workload.
const (
	trafficHosts    = 8
	trafficFlows    = 100_000
	trafficPPS      = 40_000 // aggregate of the Zipf flow population
	trafficPktSize  = 64
	zipfExponent    = 1.1
	flowFloorPPS    = 0.05 // every flow emits at least once per 20 s
	accessBps       = 1e9
	bottleneckBps   = 100e6
	bottleneckQueue = 300
	linkLatency     = 1e-4
	serverPort      = 9  // s1 → server, the bottleneck
	spillPort       = 10 // s1 → spill host, the split rule's second path
	bulkBps         = 82e6
	bulkSize        = 1500
	bulkPeriod      = 2.0 // on for half the period, off for the other half
	scanPeriod      = 10.0
	scanFirstPort   = 6000
	scanProbes      = 12
	scanGap         = 0.12
	monitoredPorts  = 16
	hhBuckets       = 8
	splitHold       = 1.0 // the split rule's hard timeout
	// queueSample is the switch-side queue sampling period: the paper's
	// 300 ms plus 0.618 of a window, off the window grid so successive
	// congestion events meet the windows at spread-out phases (see
	// knockPeriod).
	queueSample = 0.3 + 0.618034*window
	// maxPooledPackets bounds the packet pool: the free list only ever
	// holds what was in flight at once, a few hundred queued packets.
	maxPooledPackets = 4096
)

// trafficWorld is eight hosts sending a Zipf flow population and a
// periodic bulk flow through s1 to a server over a 100 Mbps bottleneck,
// plus a periodic port scan. s1's tap feeds the sketch-backed
// heavy-hitter and port-scan apps; a queue monitor sings the bottleneck
// occupancy, and a responder installs a split rule whenever it hears
// the high level. A react event runs from the first switch-side queue
// sample above the high threshold (after one below the low threshold)
// to the split rule being installed; it fails if the queue drains first.
type trafficWorld struct {
	world
	s1            *netsim.Switch
	hosts         []*netsim.Host
	server, spill *netsim.Host
	hh            *core.HeavyHitter
	ps            *core.PortScan
	qm            *core.QueueMonitor
	prog          *openflow.Programmer
	delays        logHist // packet creation → host receive, traced runs
	stopAt        float64 // traffic stops when the horizon ends

	armed      bool // a sample below the low threshold was seen
	pending    int  // open congestion event, or -1
	installFor int  // event the in-flight split install serves, or -1
	lastHeard  float64
	installs   int
	scans      []float64

	sent0, drops0, pooled0, alloc0 uint64
	installs0                      int
	attempts0                      uint64
}

func buildTraffic(cfg runConfig, tr *tracer) (scenario, error) {
	rng := newRand(cfg.seed, 2)
	w := &trafficWorld{world: newWorld(cfg.seed, tr), pending: -1, installFor: -1, lastHeard: -1}
	w.stopAt = warmupEnd + cfg.horizon
	sim := w.sim
	sim.EnablePacketPool()
	w.s1 = netsim.NewSwitch(sim, "s1")
	for i := 0; i < trafficHosts; i++ {
		h := netsim.NewHost(sim, fmt.Sprintf("h%d", i+1), netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}))
		netsim.Connect(sim, h, 1, w.s1, i+1, accessBps, linkLatency, 0)
		w.hosts = append(w.hosts, h)
	}
	w.server = netsim.NewHost(sim, "server", netsim.MustAddr("10.0.1.1"))
	w.spill = netsim.NewHost(sim, "spill", netsim.MustAddr("10.0.1.2"))
	netsim.Connect(sim, w.s1, serverPort, w.server, 1, bottleneckBps, linkLatency, bottleneckQueue)
	netsim.Connect(sim, w.s1, spillPort, w.spill, 1, bottleneckBps, linkLatency, bottleneckQueue)
	w.s1.InstallRule(netsim.Rule{Priority: 1, Match: netsim.Match{Dst: w.server.Addr}, Action: netsim.Output(serverPort)})
	if tr != nil {
		w.server.OnReceive = w.delivered
		w.spill.OnReceive = w.delivered
	}

	mic := w.room.AddMicrophone("controller", acoustic.Position{}, micNoise)
	w.mics = []*acoustic.Microphone{mic}
	sp := w.room.AddSpeaker("s1", acoustic.Position{X: 2})
	voice := core.NewVoice(sim, mp.NewSounder(mp.NewPi(sim, sp, piDelay)))
	voice.ToneDuration = toneDuration
	plan := core.DefaultPlan()
	var err error
	if w.hh, err = core.NewHeavyHitter(plan, "s1", voice, hhBuckets); err != nil {
		return nil, err
	}
	fc, err := core.NewSketchFlowCounter(1e-3, 0.01, uint64(subSeed(cfg.seed, 20)))
	if err != nil {
		return nil, err
	}
	w.hh.SetFlowCounter(fc)
	if w.ps, err = core.NewPortScan(plan, "s1", voice, scanFirstPort, monitoredPorts); err != nil {
		return nil, err
	}
	dc, err := core.NewSketchDistinctCounter(14, uint64(subSeed(cfg.seed, 21)))
	if err != nil {
		return nil, err
	}
	w.ps.SetDistinctCounter(dc)
	if w.qm, err = core.NewQueueMonitor(plan, w.s1, serverPort, voice); err != nil {
		return nil, err
	}
	w.s1.Tap = w.tap

	var watch []float64
	watch = append(watch, w.hh.Frequencies()...)
	watch = append(watch, w.ps.Frequencies()...)
	watch = append(watch, w.qm.Frequencies()...)
	w.newController(mic, core.NewDetector(core.MethodGoertzel, watch))
	w.hh.Instrument(w.reg, "s1")
	w.ps.Instrument(w.reg, "s1")
	w.qm.Instrument(w.reg, "s1")
	w.ctrl.RegisterVoice("s1", voice)
	ch := openflow.NewChannel(sim, w.s1, channelLatency)
	w.ctrl.RegisterChannel("s1", ch)
	w.prog = openflow.NewProgrammer(ch, subSeed(cfg.seed, 24))
	w.prog.OnResult = w.result

	w.hh.Start(w.ctrl, 0)
	w.adoptLastSubscriber("core.app.heavyhitter_ns")
	w.ps.Start(w.ctrl, 0)
	w.adoptLastSubscriber("core.app.portscan_ns")
	w.subscribe("queuemon", "core.app.queuemon_ns", w.qm.HandleWindow)
	w.subscribe("responder", "core.app.responder_ns", w.respond)

	// The queue monitor samples on a seeded phase; the event reader is
	// scheduled after it on the same grid, so it reads each sample the
	// moment it is taken (QueueSeries itself is bounded).
	w.qm.SampleInterval = queueSample
	qmAt := 0.05 + queueSample*rng.Float64()
	w.qm.StartSwitchSide(sim, qmAt)
	sim.Every(qmAt, w.qm.SampleInterval, w.sample)

	w.startFlows(cfg.seed, rng)
	bulk := netsim.FiveTuple{Src: w.hosts[0].Addr, Dst: w.server.Addr, SrcPort: 5001, DstPort: 9000, Proto: netsim.ProtoUDP}
	bulkPPS := bulkBps / (bulkSize * 8)
	sim.Every(0.1+rng.Float64()*bulkPeriod, bulkPeriod, func(now float64) {
		if stop := math.Min(now+bulkPeriod/2, w.stopAt); now < stop {
			netsim.StartCBR(sim, w.hosts[0], bulk, bulkPPS, bulkSize, now, stop)
		}
	})
	// Scans start early in an even second, so each falls inside one 2 s
	// port-scan interval and must raise exactly one alert.
	probe := netsim.FiveTuple{Src: w.hosts[trafficHosts-1].Addr, Dst: w.server.Addr, SrcPort: 4444, Proto: netsim.ProtoTCP}
	sim.Every(scanPeriod+0.05+0.3*rng.Float64(), scanPeriod, func(now float64) {
		if now+w.ps.Interval > w.stopAt {
			return
		}
		w.scans = append(w.scans, now)
		netsim.StartPortScan(sim, w.hosts[trafficHosts-1], probe, scanFirstPort, scanProbes, scanGap, now)
	})
	w.start(0, 0)
	return w, nil
}

// startFlows paces the Zipf population: rank r carries weight
// (r+1)^-s, floored so every flow emits, scaled to trafficPPS. The seed
// shuffles which host and source port each rank lands on.
func (w *trafficWorld) startFlows(seed int64, rng *rand.Rand) {
	weights := make([]float64, trafficFlows)
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -zipfExponent)
	}
	total := func(scale float64) float64 {
		sum := 0.0
		for _, wt := range weights {
			sum += math.Max(flowFloorPPS, scale*wt)
		}
		return sum
	}
	lo, hi := 0.0, float64(trafficPPS)
	for i := 0; i < 60; i++ {
		if mid := (lo + hi) / 2; total(mid) < trafficPPS {
			lo = mid
		} else {
			hi = mid
		}
	}
	specs := make([][]netsim.FlowSpec, trafficHosts)
	for r, slot := range rng.Perm(trafficFlows) {
		h := slot % trafficHosts
		specs[h] = append(specs[h], netsim.FlowSpec{
			Flow: netsim.FiveTuple{
				Src: w.hosts[h].Addr, Dst: w.server.Addr,
				SrcPort: uint16(1024 + slot/trafficHosts), DstPort: 80, Proto: netsim.ProtoUDP,
			},
			PPS:  math.Max(flowFloorPPS, hi*weights[r]),
			Size: trafficPktSize,
		})
	}
	for h, host := range w.hosts {
		netsim.StartFlowSet(w.sim, host, netsim.FlowSetConfig{
			Specs: specs[h], Start: 0, Stop: w.stopAt, Seed: subSeed(seed, uint64(30+h)),
		})
	}
}

// tap is s1's packet hook: the heavy-hitter and port-scan taps.
func (w *trafficWorld) tap(p *netsim.Packet, in int) {
	t0 := w.tr.start()
	w.hh.Tap(p, in)
	w.ps.Tap(p, in)
	w.tr.end(spanTap, t0, -1, true)
}

func (w *trafficWorld) delivered(p *netsim.Packet) {
	w.delays.add(w.sim.Now() - p.CreatedAt)
}

// sample reads the queue sample just taken and opens or resolves the
// congestion event.
func (w *trafficWorld) sample(now float64) {
	s := w.qm.QueueSeries
	v := s[len(s)-1].Value
	switch {
	case w.pending >= 0 && v < float64(w.qm.LowThreshold):
		// Drained: the event's deadline is now.
		w.react.events[w.pending].deadline = now
		w.pending = -1
		w.armed = true
	case w.pending < 0 && w.armed && v > float64(w.qm.HighThreshold):
		w.pending = w.react.add(now, math.Inf(1), true)
		w.armed = false
	case w.pending < 0 && v < float64(w.qm.LowThreshold):
		w.armed = true
	}
}

// respond installs the split rule on every newly heard high level; the
// first one after a congestion event is that event's decision.
func (w *trafficWorld) respond(float64, []core.Detection) {
	heard := w.qm.Heard
	i := len(heard)
	for i > 0 && heard[i-1].Time > w.lastHeard {
		i--
	}
	now := w.sim.Now()
	for ; i < len(heard); i++ {
		if heard[i].Level != core.LevelHigh {
			continue
		}
		w.installFor = -1
		if w.pending >= 0 && w.react.events[w.pending].decided < 0 && w.react.decide(w.pending, now) {
			w.installFor = w.pending
		}
		t0 := w.tr.start()
		err := w.prog.Install(openflow.FlowMod{
			Command: openflow.FlowAdd, Priority: 10,
			Match:       netsim.Match{Dst: w.server.Addr},
			Action:      netsim.Split(serverPort, spillPort),
			HardTimeout: splitHold,
		})
		w.tr.end(spanInstall, t0, int64(w.installFor), false)
		w.installs++
		if err != nil {
			w.react.anomaly("split rule: %v", err)
		}
	}
	if len(heard) > 0 {
		w.lastHeard = heard[len(heard)-1].Time
	}
}

func (w *trafficWorld) result(m openflow.FlowMod, err error) {
	w.prog.Forget(m)
	if err == nil && w.installFor >= 0 {
		w.react.complete(w.installFor, w.sim.Now()+channelLatency)
	}
	w.installFor = -1
}

func (w *trafficWorld) sentTotal() uint64 {
	var n uint64
	for _, h := range w.hosts {
		n += h.TxPackets
	}
	return n
}

func (w *trafficWorld) begin() {
	w.sent0 = w.sentTotal()
	w.drops0 = w.s1.Port(serverPort).Out.Drops()
	w.pooled0, w.alloc0 = w.sim.PacketsPooled, w.sim.PacketsAllocated
	w.installs0, w.attempts0 = w.installs, w.prog.Attempts
}

func (w *trafficWorld) finish(end float64, out *runOut) {
	horizon := end - warmupEnd
	sent := w.sentTotal() - w.sent0
	out.metrics["pkts_per_s"] = float64(sent) / out.loopWall.Seconds()
	out.metrics["netsim.queue_drops_per_sim_s"] = float64(w.s1.Port(serverPort).Out.Drops()-w.drops0) / horizon
	pooled, alloc := w.sim.PacketsPooled-w.pooled0, w.sim.PacketsAllocated-w.alloc0
	if pooled+alloc > 0 {
		out.metrics["netsim.pool_reuse_frac"] = float64(pooled) / float64(pooled+alloc)
	}
	if w.tr != nil {
		out.metrics["netsim.pkt_delay_ms_p50"] = 1000 * w.delays.quantile(0.5)
		out.metrics["netsim.pkt_delay_ms_p99"] = 1000 * w.delays.quantile(0.99)
	}
	out.metrics["sketch.bytes"] = float64(w.hh.Counter().Bytes() + w.ps.DistinctCounter().Bytes())
	if n := w.installs - w.installs0; n > 0 {
		out.metrics["openflow.attempts_per_rule"] = float64(w.prog.Attempts-w.attempts0) / float64(n)
	}

	out.check(len(w.ps.Alerts) == len(w.scans), "port-scan alerts %d, scans injected %d", len(w.ps.Alerts), len(w.scans))

	// Conservation: sources stopped at end; once the network drains,
	// every packet sent was received or dropped.
	w.sim.RunUntil(end + 1)
	sentAll := w.sentTotal()
	recv := w.server.RxPackets + w.spill.RxPackets
	drops := w.s1.TableMisses + w.s1.LoopDrops
	queued := 0
	for _, h := range w.hosts {
		drops += h.Port().Out.Drops()
		queued += h.Port().Out.Len()
	}
	for _, p := range w.s1.Ports() {
		drops += w.s1.Port(p).Out.Drops()
		queued += w.s1.QueueLen(p)
	}
	out.check(queued == 0 && sentAll == recv+drops,
		"packets not conserved: sent %d, received %d, dropped %d, still queued %d", sentAll, recv, drops, queued)
	out.check(w.sim.PacketsAllocated <= maxPooledPackets,
		"packet pool grew to %d packets (bound %d)", w.sim.PacketsAllocated, maxPooledPackets)
}
