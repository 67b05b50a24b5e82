package modem

import (
	"bytes"
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/core"
	"mdn/internal/mp"
	"mdn/internal/netsim"
	"mdn/internal/telemetry"
)

// loopback is a one-switch, one-controller acoustic testbed with a
// modem channel riding the full MP pipeline (sounder → wire faults →
// pi → speaker → room → microphone → detector).
type loopback struct {
	sim  *netsim.Sim
	room *acoustic.Room
	ctrl *core.Controller
	band *Band
	tx   *Transmitter
	rx   *Receiver
}

func newLoopback(t testing.TB, seed int64, cfg Config) *loopback {
	t.Helper()
	sim := netsim.NewSim()
	room := acoustic.NewRoom(44100, seed)
	mic := room.AddMicrophone("controller", acoustic.Position{}, 0.0005)

	band, err := NewBand(Plan(cfg), "s1", cfg)
	if err != nil {
		t.Fatal(err)
	}

	sp := room.AddSpeaker("s1", acoustic.Position{X: 1.5})
	pi := mp.NewPi(sim, sp, 0.002)
	voice := core.NewVoice(sim, mp.NewSounder(pi))

	det := core.NewDetector(core.MethodGoertzel, band.Frequencies())
	ctrl := core.NewController(sim, mic, det)

	lb := &loopback{
		sim:  sim,
		room: room,
		ctrl: ctrl,
		band: band,
		tx:   NewTransmitter(sim, band, voice),
		rx:   NewReceiver(band),
	}
	ctrl.SubscribeWindows(lb.rx.HandleWindow)
	return lb
}

func TestModemLoopbackBatch(t *testing.T) {
	lb := newLoopback(t, 1, DefaultConfig())
	lb.ctrl.Start(0)

	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	end, err := lb.tx.Send(0.5, payload)
	if err != nil {
		t.Fatal(err)
	}
	lb.sim.RunUntil(end + 0.5)

	if lb.rx.FramesRx != 1 {
		t.Fatalf("FramesRx = %d (header fail %d, crc fail %d, fec fail %d)",
			lb.rx.FramesRx, lb.rx.HeaderFailures, lb.rx.CRCFailures, lb.rx.FECFailures)
	}
	if !bytes.Equal(lb.rx.Frames[0].Payload, payload) {
		t.Fatalf("payload mismatch: got % x", lb.rx.Frames[0].Payload)
	}
	if lb.rx.Frames[0].Seq != 0 {
		t.Errorf("seq = %d", lb.rx.Frames[0].Seq)
	}
}

func TestModemLoopbackUnalignedStart(t *testing.T) {
	// Frame start deliberately off the controller's window grid: the
	// sync centroid must still recover the symbol clock.
	lb := newLoopback(t, 2, DefaultConfig())
	lb.ctrl.Start(0)

	payload := []byte("symbol timing recovery works on unaligned grids")
	end, err := lb.tx.Send(0.5123, payload)
	if err != nil {
		t.Fatal(err)
	}
	lb.sim.RunUntil(end + 0.5)

	if lb.rx.FramesRx != 1 || !bytes.Equal(lb.rx.Frames[0].Payload, payload) {
		t.Fatalf("FramesRx = %d, frames = %v (header fail %d, crc fail %d)",
			lb.rx.FramesRx, lb.rx.Frames, lb.rx.HeaderFailures, lb.rx.CRCFailures)
	}
}

func TestModemLoopbackStream(t *testing.T) {
	// Same channel on the streaming path: overlapping windows every
	// 10 ms instead of batch windows every 50 ms.
	lb := newLoopback(t, 3, DefaultConfig())
	lb.ctrl.StartStream(0, 0.010)

	payload := []byte{0x33, 0x33, 0x33, 0x33, 0xAA, 0x55, 0x00, 0xFF}
	end, err := lb.tx.Send(0.5071, payload)
	if err != nil {
		t.Fatal(err)
	}
	lb.sim.RunUntil(end + 0.5)

	if lb.rx.FramesRx != 1 || !bytes.Equal(lb.rx.Frames[0].Payload, payload) {
		t.Fatalf("FramesRx = %d, frames = %v (header fail %d, crc fail %d)",
			lb.rx.FramesRx, lb.rx.Frames, lb.rx.HeaderFailures, lb.rx.CRCFailures)
	}
}

func TestModemBackToBackFrames(t *testing.T) {
	// Frames with no gap: the second frame's pilots arrive while the
	// receiver is still finishing the first.
	lb := newLoopback(t, 4, DefaultConfig())
	lb.ctrl.Start(0)

	p1 := bytes.Repeat([]byte{0xC3}, 24)
	p2 := []byte("second frame, zero gap")
	end1, err := lb.tx.Send(0.5, p1)
	if err != nil {
		t.Fatal(err)
	}
	end2, err := lb.tx.Send(end1, p2)
	if err != nil {
		t.Fatal(err)
	}
	lb.sim.RunUntil(end2 + 0.5)

	if lb.rx.FramesRx != 2 {
		t.Fatalf("FramesRx = %d (header fail %d, crc fail %d, fec fail %d)",
			lb.rx.FramesRx, lb.rx.HeaderFailures, lb.rx.CRCFailures, lb.rx.FECFailures)
	}
	if !bytes.Equal(lb.rx.Frames[0].Payload, p1) || !bytes.Equal(lb.rx.Frames[1].Payload, p2) {
		t.Fatalf("payloads = %v", lb.rx.Frames)
	}
	if lb.rx.Frames[0].Seq != 0 || lb.rx.Frames[1].Seq != 1 {
		t.Errorf("seqs = %d, %d", lb.rx.Frames[0].Seq, lb.rx.Frames[1].Seq)
	}
}

// nibblePerToneBps is the goodput of signalling with one tone per
// nibble, paced one tone per VoiceMinGap+10 ms slot so repeated
// nibbles are never rate-limited away: the baseline a modem must beat.
var nibblePerToneBps = 4 / (core.VoiceMinGap + 0.01)

func TestModemGoodputTenfoldOverNibblePerTone(t *testing.T) {
	// The acceptance floor: a ≥64-byte payload over the acoustic sim
	// at ≥10× the one-tone-per-nibble baseline.
	lb := newLoopback(t, 5, DefaultConfig())
	lb.ctrl.Start(0)

	payload := make([]byte, 128)
	for i := range payload {
		payload[i] = byte(i)
	}
	end, err := lb.tx.Send(0.5, payload)
	if err != nil {
		t.Fatal(err)
	}
	lb.sim.RunUntil(end + 0.5)
	if lb.rx.FramesRx != 1 {
		t.Fatalf("FramesRx = %d", lb.rx.FramesRx)
	}
	goodput := lb.rx.GoodputBps()
	if goodput < 10*nibblePerToneBps {
		t.Fatalf("goodput %.1f bit/s < 10× nibble-per-tone baseline %.1f bit/s", goodput, nibblePerToneBps)
	}
	t.Logf("modem %.1f bit/s vs nibble-per-tone %.1f bit/s (%.1f×)", goodput, nibblePerToneBps, goodput/nibblePerToneBps)
}

func TestModemTelemetry(t *testing.T) {
	lb := newLoopback(t, 6, DefaultConfig())
	reg := telemetry.New()
	lb.tx.Instrument(reg, "s1")
	lb.rx.Instrument(reg, "s1")
	lb.ctrl.Start(0)

	end, err := lb.tx.Send(0.5, []byte("telemetry"))
	if err != nil {
		t.Fatal(err)
	}
	lb.sim.RunUntil(end + 0.5)

	snap := reg.Snapshot()
	for _, name := range []string{
		"mdn_modem_frames_tx", "mdn_modem_frames_rx",
		"mdn_modem_goodput_bps", "mdn_modem_payload_bits",
	} {
		v, ok := snapValue(snap, telemetry.Label(name, "channel", "s1"))
		if !ok {
			t.Fatalf("metric %s missing", name)
		}
		if v <= 0 {
			t.Errorf("metric %s = %v, want > 0", name, v)
		}
	}
}

func TestModemSendRejects(t *testing.T) {
	lb := newLoopback(t, 7, DefaultConfig())
	if _, err := lb.tx.Send(0, nil); err != ErrPayloadEmpty {
		t.Errorf("empty err = %v", err)
	}
	if _, err := lb.tx.Send(0, make([]byte, MaxPayload+1)); err != ErrPayloadTooLong {
		t.Errorf("oversize err = %v", err)
	}
}

func snapValue(snap telemetry.Snapshot, name string) (float64, bool) {
	for _, m := range snap.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}
