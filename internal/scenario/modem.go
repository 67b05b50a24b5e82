package scenario

import (
	"fmt"
	"math"
	"strings"

	"mdn/internal/core"
	"mdn/internal/modem"
	"mdn/internal/telemetry"
)

// buildModem builds the modem's testbed through build — switch
// speaker s1 a metre from the controller's microphone, no hosts and no
// apps, detection batch or streamed when streamHop > 0 — and puts the
// modem on it: a transmitter on s1's voice and a receiver on the
// controller's windows, after the probe's, all instrumented into reg.
// The modem's 130 guard-banded tones bring their own spectrum.
func buildModem(reg *telemetry.Registry, p *probe, fec modem.FEC, seed int64, dur, streamHop float64, faults *FaultsConfig, fleet int) (
	*World, *modem.Transmitter, *modem.Receiver, error) {
	w, err := build(&Config{Name: "modem", Seed: seed, DurationS: dur, Switches: []SwitchConfig{{Name: "s1", X: 1}},
		Faults: faults, Stream: streamHop > 0, HopS: streamHop}, reg, p, fleet)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := modem.DefaultConfig()
	cfg.FEC = fec
	band, err := modem.NewBand(modem.Plan(cfg), "s1", cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	tx, rx := modem.NewTransmitter(w.Sim, band, w.Voice("s1")), modem.NewReceiver(band)
	tx.Instrument(reg, "s1")
	rx.Instrument(reg, "s1")
	w.ctrl.Detector.AddWatch(band.Frequencies()...)
	w.ctrl.SubscribeWindowsNamed("modem", rx.HandleWindow)
	return w, tx, rx, nil
}

// chaosModem runs the acoustic data channel through the chaos sweep's
// faulty wire: frames of Reed-Solomon-coded payload ride the same MP
// hop the control pipelines use, so message drops become symbol
// erasures and bit flips become wrong tones. Ground truth is frames
// sent; detection is CRC-verified frames delivered.
func chaosModem(reg *telemetry.Registry, seed int64, drop, dur, streamHop float64, fleet int) ChaosPoint {
	fec := modem.FECRS{Parity: modem.DefaultRSParity}
	w, tx, rx, err := buildModem(reg, &probe{}, fec, seed, dur, streamHop, &FaultsConfig{DropProb: drop}, fleet)
	if err != nil {
		return ChaosPoint{Notes: "setup failed: " + err.Error()}
	}

	payload := make([]byte, 32)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	frames := 0
	at := 1.0
	for {
		end, err := tx.Send(at, payload)
		if err != nil {
			return ChaosPoint{Notes: "send failed: " + err.Error()}
		}
		if end+0.3 > dur {
			break
		}
		frames++
		at = end
	}

	pt := ChaosPoint{GroundTruth: frames}
	w.Sim.RunUntil(dur)
	pt.setHealth(w.ctrl.Health())
	pt.Detected = int(rx.FramesRx)
	if pt.Detected > frames {
		// The last, uncounted frame straddling the horizon delivered
		// anyway; clamp so recall stays a ratio of offered frames.
		pt.Detected = frames
	}
	pt.Notes = fmt.Sprintf("fec=%s goodput=%.0fb/s corrected=%d crcfail=%d fecfail=%d hdrfail=%d",
		fec.Name(), rx.GoodputBps(), rx.FECCorrected,
		rx.CRCFailures, rx.FECFailures, rx.HeaderFailures)
	return pt
}

// ModemSweepConfig parameterises a modem corruption sweep: a grid of
// FEC schemes × seeded symbol-corruption rates on an otherwise clean
// wire, measuring how each scheme's delivery degrades.
type ModemSweepConfig struct {
	// Seed drives every stochastic component; per-point corruptor
	// streams derive from it and the grid position.
	Seed int64 `json:"seed"`
	// FECs are the scheme names to sweep (default none, hamming7_4,
	// rs_p48; see modem.FECByName).
	FECs []string `json:"fecs,omitempty"`
	// CorruptRates are the per-symbol corruption probabilities to
	// sweep (default 0, 0.02, 0.05, 0.10).
	CorruptRates []float64 `json:"corrupt_rates,omitempty"`
	// StreamHop, when positive, receives on the streaming detection
	// path with this hop (see core.Controller.StartStream).
	StreamHop float64 `json:"stream_hop,omitempty"`
	// Workers bounds the sweep's worker pool (<= 0 means GOMAXPROCS).
	// The report is byte-identical at every worker count.
	Workers int `json:"workers,omitempty"`
}

// ModemSweepPoint is one (FEC, corruption rate) measurement.
type ModemSweepPoint struct {
	FEC         string  `json:"fec"`
	CorruptRate float64 `json:"corrupt_rate"`
	// FramesTx/FramesRx are frames offered and CRC-verified frames
	// delivered; Recovered is their ratio.
	FramesTx  uint64  `json:"frames_tx"`
	FramesRx  uint64  `json:"frames_rx"`
	Recovered float64 `json:"recovered"`
	// SymbolsCorrupted counts the corruptor's hits; FECCorrected the
	// symbol repairs the FEC reported.
	SymbolsCorrupted uint64 `json:"symbols_corrupted"`
	FECCorrected     uint64 `json:"fec_corrected"`
	// Failure counters, by layer.
	HeaderFailures uint64 `json:"header_failures"`
	CRCFailures    uint64 `json:"crc_failures"`
	FECFailures    uint64 `json:"fec_failures"`
	// GoodputBps is delivered payload bits per simulated second.
	GoodputBps float64 `json:"goodput_bps"`
}

// ModemSweepReport is a full corruption sweep.
type ModemSweepReport struct {
	Seed   int64             `json:"seed"`
	Points []ModemSweepPoint `json:"points"`
}

// RunModemSweep executes the FEC × corruption grid on the sweep runner.
// Every point records its controller, room and modem telemetry into
// reg (nil runs unmetered).
func RunModemSweep(cfg ModemSweepConfig, reg *telemetry.Registry) (*ModemSweepReport, error) {
	fecs := cfg.FECs
	if len(fecs) == 0 {
		fecs = []string{"none", "hamming7_4", "rs_p48"}
	}
	rates := cfg.CorruptRates
	if len(rates) == 0 {
		rates = []float64{0, 0.02, 0.05, 0.10}
	}
	// Validate the grid up front.
	schemes := make([]modem.FEC, len(fecs))
	for i, name := range fecs {
		fec, err := modem.FECByName(name)
		if err != nil {
			return nil, err
		}
		schemes[i] = fec
	}
	for _, r := range rates {
		if !(r >= 0 && r <= 1) { // also rejects NaN
			return nil, fmt.Errorf("scenario: modem corrupt rate %g outside [0, 1]", r)
		}
	}
	if cfg.StreamHop > 0 {
		if err := core.CheckStreamHop(core.DefaultWindow, 44100, cfg.StreamHop); err != nil {
			return nil, fmt.Errorf("scenario: stream_hop: %w", err)
		}
	}
	pts, err := sweep(cfg.Seed, cfg.Workers, len(fecs), len(rates), func(r, c int, seed int64, fleet int) ModemSweepPoint {
		pt := modemPoint(reg, schemes[r], rates[c], seed, cfg.StreamHop, fleet)
		pt.FEC = fecs[r]
		pt.CorruptRate = rates[c]
		return pt
	})
	if err != nil {
		return nil, err
	}
	return &ModemSweepReport{Seed: cfg.Seed, Points: pts}, nil
}

// modemPoint measures one (FEC, corruption rate) cell on the modem
// world with a clean wire: the corruptor attacks payload symbols at
// schedule time.
func modemPoint(reg *telemetry.Registry, fec modem.FEC, rate float64, seed int64, streamHop float64, fleet int) ModemSweepPoint {
	// The point runs until its last frame has had 0.5 s to land, a
	// horizon the frames fix only once scheduled.
	w, tx, rx, err := buildModem(reg, nil, fec, seed, math.Inf(1), streamHop, nil, fleet)
	if err != nil {
		return ModemSweepPoint{}
	}
	tx.Corruptor = modem.NewCorruptor(rate, seed+1)

	// Every point sends 6 frames of 64 payload bytes.
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i*13 + 7)
	}
	at := 0.5
	for f := 0; f < 6; f++ {
		end, err := tx.Send(at, payload)
		if err != nil {
			return ModemSweepPoint{}
		}
		at = end
	}
	w.Sim.RunUntil(at + 0.5)

	pt := ModemSweepPoint{
		FramesTx:         tx.FramesTx,
		FramesRx:         rx.FramesRx,
		SymbolsCorrupted: tx.SymbolsCorrupted,
		FECCorrected:     rx.FECCorrected,
		HeaderFailures:   rx.HeaderFailures,
		CRCFailures:      rx.CRCFailures,
		FECFailures:      rx.FECFailures,
		GoodputBps:       rx.GoodputBps(),
	}
	if pt.FramesTx > 0 {
		pt.Recovered = float64(pt.FramesRx) / float64(pt.FramesTx)
	}
	return pt
}

// Table renders the sweep as a fixed-width recovery table.
func (r *ModemSweepReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "modem corruption sweep: seed=%d\n", r.Seed)
	fmt.Fprintf(&b, "%-12s %8s  %5s %9s  %9s %9s  %8s %8s %8s\n",
		"fec", "corrupt", "recov", "tx/rx", "corrupted", "repaired", "hdrfail", "crcfail", "fecfail")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-12s %7.0f%%  %4.0f%% %5d/%-3d  %9d %9d  %8d %8d %8d\n",
			p.FEC, 100*p.CorruptRate, 100*p.Recovered, p.FramesTx, p.FramesRx,
			p.SymbolsCorrupted, p.FECCorrected, p.HeaderFailures, p.CRCFailures, p.FECFailures)
	}
	return b.String()
}
