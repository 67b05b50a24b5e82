package modem

import (
	"math/rand"

	"mdn/internal/core"
	"mdn/internal/mp"
	"mdn/internal/netsim"
	"mdn/internal/telemetry"
)

// Corruptor is the modem's chaos hook: a seeded attacker that mangles
// body symbols as they are scheduled, before they reach the air. Each
// body symbol is hit independently with probability Rate; half the
// hits erase the tone (the lane goes silent for that epoch), half
// remap it to a different value in the same lane and bank (the
// detector hears a confidently wrong nibble). Sync and header epochs
// are left alone — the sweep attacks payloads, and the header's
// redundant copies are exercised by wire-level fault injection
// instead.
type Corruptor struct {
	// Rate is the per-symbol corruption probability in [0, 1].
	Rate float64

	rng *rand.Rand
}

// NewCorruptor seeds a symbol attacker.
func NewCorruptor(rate float64, seed int64) *Corruptor {
	return &Corruptor{Rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// attack returns the possibly-mangled value for one body symbol:
// (val, true) to emit — corrupted or not — or (0, false) to erase.
func (c *Corruptor) attack(val int) (int, bool) {
	if c == nil || c.rng.Float64() >= c.Rate {
		return val, true
	}
	if c.rng.Intn(2) == 0 {
		return 0, false
	}
	return (val + 1 + c.rng.Intn(symbolValues-1)) % symbolValues, true
}

// Transmitter drives a core.Voice on the modem's symbol clock. It
// schedules every tone of a frame up front on the simulator, so Send
// returns immediately with the frame's end time; the voice's
// PlayMessage path (no same-frequency re-arm gap) carries the
// emissions. Scheduled tones live in pooled records and the frame is
// assembled and FEC-coded in reused buffers, so after warm-up Send
// allocates nothing.
type Transmitter struct {
	band  *Band
	sim   *netsim.Sim
	voice *core.Voice

	// Corruptor, when set, attacks body symbols at schedule time.
	Corruptor *Corruptor

	seq   byte
	data  []byte  // payload ‖ CRC-16 of the frame being sent
	coded []byte  // data's FEC-coded form
	tones []*tone // idle tone records

	// FramesTx counts frames scheduled.
	FramesTx uint64
	// SymbolsTx counts data symbols scheduled (header and body,
	// including erased ones — the slot was spent either way).
	SymbolsTx uint64
	// SymbolsCorrupted counts body symbols the Corruptor hit.
	SymbolsCorrupted uint64
	// BitsTx counts payload bits scheduled (goodput numerator).
	BitsTx uint64
}

// NewTransmitter wires a modem transmitter to a voice.
func NewTransmitter(sim *netsim.Sim, band *Band, voice *core.Voice) *Transmitter {
	// The band is fixed, so the room builds its tone tables now rather
	// than on each tone's first play, and a send allocates none.
	voice.Sounder().Speaker().PrepareTones(band.Frequencies())
	return &Transmitter{band: band, sim: sim, voice: voice}
}

// Send schedules one frame carrying payload starting at time `at` and
// returns the time the last tone ends. The frame's sequence number is
// assigned from the transmitter's running counter.
func (t *Transmitter) Send(at float64, payload []byte) (float64, error) {
	if len(payload) == 0 {
		return 0, ErrPayloadEmpty
	}
	if len(payload) > MaxPayload {
		return 0, ErrPayloadTooLong
	}
	cfg := t.band.cfg

	// Body: FEC(payload ‖ CRC-16).
	c := crc16(payload)
	t.data = append(append(t.data[:0], payload...), byte(c>>8), byte(c))
	coded := cfg.FEC.appendEncode(t.coded[:0], t.data)
	t.coded = coded

	// Header, twice.
	hdr := make([]byte, headerBytes*headerCopies)
	encodeHeader(header{PayloadLen: len(payload), FECID: cfg.FEC.ID(), Seq: t.seq}, hdr[:headerBytes])
	copy(hdr[headerBytes:], hdr[:headerBytes])
	t.seq++

	g := frameGeometry(cfg, len(coded))
	T := cfg.SymbolPeriod

	// Sync epochs: one full-period pilot per bank. A pilot must be a
	// single emission — MP messages carry no phase, so two abutting
	// half-tones would restart at phase zero and, at half the band's
	// frequencies, cancel each other inside a capture window. Losing
	// one pilot to a wire fault still locks the clock: the receiver
	// combines whichever pilots it heard.
	for bank := 0; bank < banks; bank++ {
		t.scheduleTone(at+float64(float64(bank)*T), t.band.SyncTone(bank), T)
	}

	// Data epochs: Lanes nibbles per epoch. The body starts on a fresh
	// epoch boundary (the header's last epoch is zero-padded), so both
	// ends compute nibble positions from the same geometry.
	for e := 2; e < g.totalEpochs; e++ {
		start := at + float64(float64(e)*T)
		for lane := 0; lane < cfg.Lanes; lane++ {
			var val int
			body := false
			if he := e - 2; he < g.hdrEpochs {
				val = nibbleOf(hdr, he*cfg.Lanes+lane)
			} else {
				val = nibbleOf(coded, (he-g.hdrEpochs)*cfg.Lanes+lane)
				body = true
			}
			t.SymbolsTx++
			emit := true
			if body && t.Corruptor != nil {
				mangled, keep := t.Corruptor.attack(val)
				if mangled != val || !keep {
					t.SymbolsCorrupted++
				}
				val, emit = mangled, keep
			}
			if emit {
				t.scheduleTone(start, t.band.DataTone(e, lane, val), T)
			}
		}
	}

	t.FramesTx++
	t.BitsTx += 8 * uint64(len(payload))
	return at + float64(float64(g.totalEpochs)*T), nil
}

// tone is one scheduled emission. Records are pooled per transmitter
// and each binds its play callback once.
type tone struct {
	t         *Transmitter
	freq, dur float64
	fire      func()
}

// play emits the tone and returns the record to the pool.
func (n *tone) play() {
	t := n.t
	m := mp.Message{Frequency: n.freq, Duration: n.dur, Intensity: t.band.cfg.Intensity}
	t.tones = append(t.tones, n)
	t.voice.PlayMessage(m)
}

// scheduleTone emits one tone at the given absolute time.
func (t *Transmitter) scheduleTone(at, freq, dur float64) {
	var n *tone
	if k := len(t.tones); k > 0 {
		n, t.tones = t.tones[k-1], t.tones[:k-1]
	} else {
		n = &tone{t: t}
		n.fire = n.play
	}
	n.freq, n.dur = freq, dur
	t.sim.Schedule(at, n.fire)
}

// Instrument exposes the transmitter's counters under the given
// channel name.
func (t *Transmitter) Instrument(reg *telemetry.Registry, channel string) {
	reg.Func(telemetry.Label("mdn_modem_frames_tx", "channel", channel),
		func() float64 { return float64(t.FramesTx) })
	reg.Func(telemetry.Label("mdn_modem_symbols_tx", "channel", channel),
		func() float64 { return float64(t.SymbolsTx) })
	reg.Func(telemetry.Label("mdn_modem_symbols_corrupted", "channel", channel),
		func() float64 { return float64(t.SymbolsCorrupted) })
}
