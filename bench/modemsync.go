package main

import (
	"bytes"
	"math/rand"
	"net/netip"
	"slices"

	"mdn/internal/acoustic"
	"mdn/internal/core"
	"mdn/internal/modem"
	"mdn/internal/mp"
	"mdn/internal/netsim"
	"mdn/internal/openflow"
)

// The flow-table replication world of modem-sync.
const (
	modemFEC        = "rs_p48"
	modemCorruption = 0.03
	// modemLead is how long before its start a frame is handed to the
	// transmitter, which schedules every tone of the frame at once.
	modemLead = 0.5
	// modemDeliverBy is how long after a frame's last tone the standby
	// may take to deliver it before the frame counts as lost.
	modemDeliverBy = 1.0
	rulesPerFrame  = 1
)

// sentFrame is one frame in flight from the primary to the standby.
type sentFrame struct {
	id      int // react event
	seq     byte
	payload []byte
	rules   []openflow.FlowMod
}

// modemWorld replicates seed-drawn flow rules from a primary to a
// standby switch over the acoustic modem: frames are sent back to back
// through a symbol corruptor, decoded by a Receiver on the controller's
// windows, checked and applied on the standby. A react event runs from
// a frame's first tone to its rules being applied.
type modemWorld struct {
	world
	rng      *rand.Rand
	tx       *modem.Transmitter
	rx       *modem.Receiver
	standby  *netsim.Switch
	seq      byte
	inflight []*sentFrame

	payloadBytes int
	rx0          uint64
	fec0         uint64
}

func buildModem(cfg runConfig, tr *tracer) (scenario, error) {
	w := &modemWorld{world: newWorld(cfg.seed, tr), rng: newRand(cfg.seed, 3)}
	mic := w.room.AddMicrophone("controller", acoustic.Position{}, micNoise)
	w.mics = []*acoustic.Microphone{mic}
	sp := w.room.AddSpeaker("primary", acoustic.Position{X: 2})
	voice := core.NewVoice(w.sim, mp.NewSounder(mp.NewPi(w.sim, sp, piDelay)))
	mcfg := modem.DefaultConfig()
	fec, err := modem.FECByName(modemFEC)
	if err != nil {
		return nil, err
	}
	mcfg.FEC = fec
	band, err := modem.NewBand(modem.Plan(mcfg), "primary", mcfg)
	if err != nil {
		return nil, err
	}
	w.tx = modem.NewTransmitter(w.sim, band, voice)
	w.tx.Corruptor = modem.NewCorruptor(modemCorruption, subSeed(cfg.seed, 40))
	w.rx = modem.NewReceiver(band)
	w.rx.OnFrame(w.onFrame)
	w.standby = netsim.NewSwitch(w.sim, "standby")

	w.newController(mic, core.NewDetector(core.MethodGoertzel, band.Frequencies()))
	w.ctrl.RegisterVoice("primary", voice)
	w.subscribe("modem-rx", "modem.rx_window_ns", w.rx.HandleWindow)
	// Frames run back to back from a seeded start, so the frame clock's
	// phase against the controller windows is a function of the seed.
	w.schedule(0.5 + window*w.rng.Float64())
	w.start(0, 0)
	return w, nil
}

// schedule hands the next frame to the transmitter modemLead before it
// starts at time at.
func (w *modemWorld) schedule(at float64) {
	w.sim.Schedule(at-modemLead, func() { w.send(at) })
}

func (w *modemWorld) send(at float64) {
	f := &sentFrame{seq: w.seq}
	for i := 0; i < rulesPerFrame; i++ {
		r := drawRule(w.rng)
		b, err := openflow.MarshalFlowMod(r)
		if err != nil {
			w.react.anomaly("drawn rule does not marshal: %v", err)
			return
		}
		f.rules = append(f.rules, r)
		f.payload = append(f.payload, b...)
	}
	w.payloadBytes = len(f.payload)
	t0 := w.tr.start()
	end, err := w.tx.Send(at, f.payload)
	if err != nil {
		w.react.anomaly("send: %v", err)
		return
	}
	f.id = w.react.add(at, end+modemDeliverBy, true)
	w.tr.end(spanTxSend, t0, int64(f.id), true)
	w.seq++
	w.inflight = append(w.inflight, f)
	w.schedule(end)
}

// drawRule draws one flow rule; every rule marshals to the same size.
func drawRule(rng *rand.Rand) openflow.FlowMod {
	return openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Priority: int32(1 + rng.Intn(1000)),
		Match: netsim.Match{
			Dst:     netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))}),
			DstPort: uint16(1 + rng.Intn(65535)),
			Proto:   []uint8{netsim.ProtoTCP, netsim.ProtoUDP}[rng.Intn(2)],
		},
		Action:      netsim.Output(1 + rng.Intn(48)),
		HardTimeout: float64(5 + rng.Intn(26)),
	}
}

// onFrame is the standby: it checks a CRC-valid frame against what was
// sent, decodes its rules, checks them, and applies them.
func (w *modemWorld) onFrame(fr modem.Frame) {
	now := w.sim.Now()
	i := slices.IndexFunc(w.inflight, func(f *sentFrame) bool { return f.seq == fr.Seq })
	if i < 0 {
		w.react.anomaly("frame seq %d delivered but none in flight", fr.Seq)
		return
	}
	f := w.inflight[i]
	// Older frames still in flight were lost.
	w.inflight = w.inflight[i+1:]
	if !bytes.Equal(fr.Payload, f.payload) {
		w.react.anomaly("frame %d: delivered bytes differ from the bytes sent", f.id)
		return
	}
	rest := fr.Payload
	for k := 0; len(rest) > 0; k++ {
		msg, n, err := openflow.Unmarshal(rest)
		if err != nil {
			w.react.anomaly("frame %d: rule %d does not decode: %v", f.id, k, err)
			return
		}
		rest = rest[n:]
		m, ok := msg.(openflow.FlowMod)
		if !ok || k >= len(f.rules) || !sameRule(m, f.rules[k]) {
			w.react.anomaly("frame %d: rule %d differs from the rule marshalled", f.id, k)
			return
		}
		m.Apply(w.standby)
	}
	if w.react.decide(f.id, now) {
		w.react.complete(f.id, now)
	}
}

func sameRule(a, b openflow.FlowMod) bool {
	return a.Command == b.Command && a.Priority == b.Priority && a.Match == b.Match &&
		a.Action.Kind == b.Action.Kind && slices.Equal(a.Action.Ports, b.Action.Ports) &&
		a.IdleTimeout == b.IdleTimeout && a.HardTimeout == b.HardTimeout
}

func (w *modemWorld) begin() {
	w.rx0, w.fec0 = w.rx.FramesRx, w.rx.FECCorrected
}

func (w *modemWorld) finish(end float64, out *runOut) {
	horizon := end - warmupEnd
	delivered := out.attempted - out.failed
	out.metrics["goodput_bps"] = float64(8*w.payloadBytes*delivered) / horizon
	if n := w.rx.FramesRx - w.rx0; n > 0 {
		out.metrics["modem.fec_corrected_per_frame"] = float64(w.rx.FECCorrected-w.fec0) / float64(n)
	}
}
