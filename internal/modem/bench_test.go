package modem

import (
	"bytes"
	"testing"

	"mdn/internal/core"
)

// BenchmarkModemGoodput measures delivered payload bits per simulated
// second through the full acoustic loop, per FEC scheme, with the
// one-tone-per-nibble rate as the baseline sub-benchmark.
func BenchmarkModemGoodput(b *testing.B) {
	for _, fec := range []FEC{FECNone{}, FECHamming{}, FECRS{Parity: DefaultRSParity}} {
		b.Run(fec.Name(), func(b *testing.B) {
			var goodput float64
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.FEC = fec
				lb := newLoopback(b, 21, cfg)
				lb.ctrl.Start(0)
				payload := make([]byte, 64)
				for j := range payload {
					payload[j] = byte(j)
				}
				at := 0.5
				for f := 0; f < 4; f++ {
					end, err := lb.tx.Send(at, payload)
					if err != nil {
						b.Fatal(err)
					}
					at = end
				}
				lb.sim.RunUntil(at + 0.5)
				if lb.rx.FramesRx != 4 {
					b.Fatalf("FramesRx = %d", lb.rx.FramesRx)
				}
				goodput = lb.rx.GoodputBps()
			}
			b.ReportMetric(goodput, "bits/s")
		})
	}
	b.Run("nibble-per-tone-baseline", func(b *testing.B) {
		b.ReportMetric(nibblePerToneBps, "bits/s")
	})
}

// benchReceiver drives a receiver into locked, header-parsed
// steady state with synthetic windows, returning it plus a reusable
// mid-body window.
func benchReceiver(tb testing.TB) (*Receiver, float64, []core.Detection) {
	cfg := DefaultConfig()
	band, err := NewBand(Plan(cfg), "bench", cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rx := NewReceiver(band)
	T := cfg.SymbolPeriod
	t0 := 1.0
	rx.HandleWindow(t0, []core.Detection{
		{Time: t0, Frequency: band.SyncTone(0), Amplitude: 0.01}})
	rx.HandleWindow(t0+T, []core.Detection{
		{Time: t0 + T, Frequency: band.SyncTone(1), Amplitude: 0.01}})

	var hdr [headerBytes * headerCopies]byte
	encodeHeader(header{PayloadLen: 200, FECID: FECNone{}.ID(), Seq: 0}, hdr[:headerBytes])
	copy(hdr[headerBytes:], hdr[:headerBytes])
	hdrE := frameGeometry(cfg, 0).hdrEpochs
	for he := 0; he < hdrE; he++ {
		e := 2 + he
		from := t0 + float64(e)*T
		dets := make([]core.Detection, 0, cfg.Lanes)
		for lane := 0; lane < cfg.Lanes; lane++ {
			val := nibbleOf(hdr[:], he*cfg.Lanes+lane)
			dets = append(dets, core.Detection{
				Time: from, Frequency: band.DataTone(e, lane, val), Amplitude: 0.01})
		}
		rx.HandleWindow(from, dets)
	}

	// One mid-body window, reused for every steady-state iteration
	// (equal window starts are valid: streaming hops may repeat them).
	e := 2 + hdrE + 4
	from := t0 + float64(e)*T
	dets := make([]core.Detection, 0, cfg.Lanes)
	for lane := 0; lane < cfg.Lanes; lane++ {
		dets = append(dets, core.Detection{
			Time: from, Frequency: band.DataTone(e, lane, (lane*5+3)%16), Amplitude: 0.01})
	}
	rx.HandleWindow(from, dets) // warm-up: parses the header
	if !rx.hdrParsed {
		tb.Fatal("bench receiver failed to parse header")
	}
	return rx, from, dets
}

// TestReceiverWindowAllocs pins the steady-state demodulation path at
// zero allocations per window.
func TestReceiverWindowAllocs(t *testing.T) {
	rx, from, dets := benchReceiver(t)
	if n := testing.AllocsPerRun(1000, func() {
		rx.HandleWindow(from, dets)
	}); n != 0 {
		t.Fatalf("receiver window path allocates %.1f/op, want 0", n)
	}
}

// BenchmarkModemReceiverWindow times the path TestReceiverWindowAllocs
// holds to 0 allocs per window.
func BenchmarkModemReceiverWindow(b *testing.B) {
	rx, from, dets := benchReceiver(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rx.HandleWindow(from, dets)
	}
}

// TestTransmitterSendAllocs: after warm-up, a frame's trip from Send
// through FEC encoding and its scheduled tones to the speaker allocates
// nothing, whatever the frame's length. The room is compacted behind
// each frame, as Controller.Retention does, so its emission list stops
// growing; the gate counts every allocation over 20 frames, not a
// per-frame mean rounded down.
func TestTransmitterSendAllocs(t *testing.T) {
	for _, fec := range []FEC{FECNone{}, FECHamming{}, FECRS{Parity: DefaultRSParity}} {
		cfg := DefaultConfig()
		cfg.FEC = fec
		lb := newLoopback(t, 3, cfg)
		at := 0.5
		for _, n := range []int{49, 8, 120} {
			payload := make([]byte, n)
			frames := func() {
				for range 20 {
					end, err := lb.tx.Send(at, payload)
					if err != nil {
						t.Fatal(err)
					}
					lb.sim.RunUntil(end)
					lb.room.CompactBefore(at)
					at = end
				}
			}
			if allocs := testing.AllocsPerRun(1, frames); allocs != 0 {
				t.Errorf("%s, %d-byte payload: 20 sent frames allocate %v times, want 0", fec.Name(), n, allocs)
			}
		}
	}
}

// frameWindows lays one frame of payload out as the capture windows a
// receiver hears, one per symbol epoch and starting with the frame.
// Two empty windows follow: the receiver's clock estimate may round a
// hair late, so the second is the one sure to complete the frame.
// Window i starts i·SymbolPeriod after the frame.
func frameWindows(band *Band, cfg Config, payload []byte) [][]core.Detection {
	c := crc16(payload)
	coded := cfg.FEC.Encode(append(append([]byte(nil), payload...), byte(c>>8), byte(c)))
	var hdr [headerBytes * headerCopies]byte
	encodeHeader(header{PayloadLen: len(payload), FECID: cfg.FEC.ID()}, hdr[:headerBytes])
	copy(hdr[headerBytes:], hdr[:headerBytes])
	g := frameGeometry(cfg, len(coded))
	windows := make([][]core.Detection, g.totalEpochs+2)
	for bank := 0; bank < banks; bank++ {
		windows[bank] = []core.Detection{{Frequency: band.SyncTone(bank), Amplitude: 0.01}}
	}
	for e := 2; e < g.totalEpochs; e++ {
		for lane := 0; lane < cfg.Lanes; lane++ {
			var val int
			if he := e - 2; he < g.hdrEpochs {
				val = nibbleOf(hdr[:], he*cfg.Lanes+lane)
			} else {
				val = nibbleOf(coded, (he-g.hdrEpochs)*cfg.Lanes+lane)
			}
			windows[e] = append(windows[e], core.Detection{Frequency: band.DataTone(e, lane, val), Amplitude: 0.01})
		}
	}
	return windows
}

// TestReceiverFrameAllocs: once its buffers and Frames have grown to
// their bounds, a receiver demodulates, FEC-decodes and delivers a
// frame with one allocation, the delivered payload copy.
func TestReceiverFrameAllocs(t *testing.T) {
	for _, fec := range []FEC{FECNone{}, FECHamming{}, FECRS{Parity: DefaultRSParity}} {
		cfg := DefaultConfig()
		cfg.FEC = fec
		band, err := NewBand(Plan(cfg), "bench", cfg)
		if err != nil {
			t.Fatal(err)
		}
		rx := NewReceiver(band)
		payload := []byte("a replicated flow rule")
		windows := frameWindows(band, cfg, payload)
		from := 1.0
		frame := func() {
			for _, w := range windows {
				rx.HandleWindow(from, w)
				from += cfg.SymbolPeriod
			}
		}
		for i := 0; i <= framesMax; i++ {
			frame()
		}
		if rx.FramesRx != framesMax+1 {
			t.Fatalf("%s: %d of %d warm-up frames delivered", fec.Name(), rx.FramesRx, framesMax+1)
		}
		if allocs := testing.AllocsPerRun(100, frame); allocs != 1 {
			t.Errorf("%s: a delivered frame allocates %v times, want 1 (its payload)", fec.Name(), allocs)
		}
		if last := rx.Frames[len(rx.Frames)-1]; rx.FramesRx != framesMax+102 || !bytes.Equal(last.Payload, payload) {
			t.Errorf("%s: %d frames delivered, last payload %q", fec.Name(), rx.FramesRx, last.Payload)
		}
	}
}
