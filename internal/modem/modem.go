// Package modem implements an acoustic data channel over the MDN
// simulation: a proper M-ary FSK modem layered on the Music Protocol,
// with byte framing, CRC-16 integrity, and pluggable forward error
// correction, in the spirit of ChirpCast (arXiv 1508.07099).
//
// The paper closes by observing that tone sequences can drive "any
// finite state machine"; core.MelodyCodec is the one-symbol-per-tone
// constructive version and tops out near 25 bit/s because every tone
// must respect the voice's same-frequency re-arm gap. The modem
// instead treats the band as parallel FSK lanes on a fixed symbol
// clock:
//
//   - A symbol epoch lasts Config.SymbolPeriod seconds (default one
//     controller window, 50 ms). Every epoch, each of Config.Lanes
//     lanes sounds one of 16 tones — one nibble per lane per epoch.
//   - Consecutive epochs alternate between two disjoint frequency
//     banks (A for even epochs, B for odd). A capture window that
//     straddles an epoch boundary therefore sees the two adjacent
//     symbols in different banks and can attribute each
//     unambiguously; repeated equal symbols never fuse into one long
//     tone.
//   - Each frame opens with two dedicated sync tones (one per bank)
//     whose amplitude centroid across capture windows gives the
//     receiver the epoch clock phase — the symbol-timing recovery
//     that lets transmitter and controller run on unaligned grids.
//
// Framing, integrity, and error correction live above the symbol
// layer: a twice-sent header carries payload length, FEC identity and
// sequence number; the body is payload plus CRC-16, passed through
// the configured FEC (none, interleaved Hamming(7,4), or
// Reed-Solomon over GF(256)) so frames survive symbol erasures and
// corruptions injected mid-air.
package modem

import (
	"fmt"

	"mdn/internal/core"
)

// Symbol-layer constants. M is fixed at 16 tones per lane (one nibble
// per lane-symbol) so bytes map cleanly onto symbols; banks is fixed
// at 2 (epoch parity).
const (
	symbolValues = 16
	banks        = 2
)

// Config parameterises a modem band. The zero value is unusable; fill
// the fields or use DefaultConfig.
type Config struct {
	// Lanes is the number of parallel FSK lanes sounding each epoch.
	// Each lane carries one nibble per epoch, so raw throughput is
	// 4·Lanes/SymbolPeriod bit/s before framing and FEC.
	Lanes int
	// SymbolPeriod is the epoch length in seconds. The default (one
	// 50 ms controller window) guarantees every epoch is the dominant
	// overlap of at least one batch capture window.
	SymbolPeriod float64
	// WindowS is the controller's capture window length, used by the
	// receiver to reason about window/epoch overlap (default
	// core.DefaultWindow).
	WindowS float64
	// Intensity is the per-tone emission loudness in dB SPL at 1 m
	// (default 60, like core.Voice).
	Intensity float64
	// FEC is the forward error correction applied to the frame body
	// (nil = FECNone).
	FEC FEC
}

// DefaultConfig returns the default modem shape: 4 lanes on the 50 ms
// controller window clock — 320 bit/s raw — with no FEC.
func DefaultConfig() Config {
	return Config{
		Lanes:        4,
		SymbolPeriod: core.DefaultWindow,
		WindowS:      core.DefaultWindow,
		Intensity:    60,
		FEC:          FECNone{},
	}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Lanes <= 0 {
		c.Lanes = d.Lanes
	}
	if c.SymbolPeriod <= 0 {
		c.SymbolPeriod = d.SymbolPeriod
	}
	if c.WindowS <= 0 {
		c.WindowS = d.WindowS
	}
	if c.Intensity <= 0 {
		c.Intensity = d.Intensity
	}
	if c.FEC == nil {
		c.FEC = d.FEC
	}
	return c
}

// Tones returns the number of frequencies a band with this config
// occupies: one sync tone per bank plus 16 tones per lane per bank.
func (c Config) Tones() int { return banks + banks*c.Lanes*symbolValues }

// toneRef identifies what a watched frequency means to the modem.
type toneRef struct {
	sync bool
	bank int
	lane int
	val  int
}

// Band is a modem's frequency assignment: 2 sync tones and
// 2·Lanes·16 data tones allocated guard-banded from a FrequencyPlan,
// shared by the transmitter and receiver of one acoustic data
// channel.
type Band struct {
	cfg  Config
	sync [banks]float64
	// tone[bank][lane*16+val]
	tone   [banks][]float64
	lookup map[float64]toneRef
}

// NewBand allocates a modem band under the given name. With the
// default config it needs 130 guard-banded slots (520 plan slots) —
// wider than core.DefaultPlan; see Plan.
func NewBand(plan *core.FrequencyPlan, name string, cfg Config) (*Band, error) {
	cfg = cfg.withDefaults()
	freqs, err := plan.AllocateSpaced(name+"/modem", cfg.Tones(), core.DefaultStride)
	if err != nil {
		return nil, fmt.Errorf("modem: allocating band: %w", err)
	}
	b := &Band{cfg: cfg, lookup: make(map[float64]toneRef, len(freqs))}
	b.sync[0], b.sync[1] = freqs[0], freqs[1]
	b.lookup[freqs[0]] = toneRef{sync: true, bank: 0}
	b.lookup[freqs[1]] = toneRef{sync: true, bank: 1}
	next := 2
	for bank := 0; bank < banks; bank++ {
		b.tone[bank] = freqs[next : next+cfg.Lanes*symbolValues]
		next += cfg.Lanes * symbolValues
		for lane := 0; lane < cfg.Lanes; lane++ {
			for val := 0; val < symbolValues; val++ {
				f := b.tone[bank][lane*symbolValues+val]
				b.lookup[f] = toneRef{bank: bank, lane: lane, val: val}
			}
		}
	}
	return b, nil
}

// Plan returns a frequency plan wide enough for a band of the given
// config plus headroom for coexisting applications: the default
// 4-lane band needs ~10.7 kHz of spectrum at the paper's 20 Hz
// spacing, more than core.DefaultPlan's 400–8000 Hz.
func Plan(cfg Config) *core.FrequencyPlan {
	cfg = cfg.withDefaults()
	slots := (cfg.Tones()-1)*core.DefaultStride + 1
	top := 400 + float64(slots+63)*core.DefaultSpacing // 64 spare slots
	return core.NewFrequencyPlan(400, top, core.DefaultSpacing)
}

// Config returns the band's (defaults-filled) configuration.
func (b *Band) Config() Config { return b.cfg }

// Frequencies returns every tone in the band — what the controller's
// detector must watch.
func (b *Band) Frequencies() []float64 {
	out := make([]float64, 0, b.cfg.Tones())
	out = append(out, b.sync[0], b.sync[1])
	out = append(out, b.tone[0]...)
	out = append(out, b.tone[1]...)
	return out
}

// SyncTone returns the sync frequency of the given bank (0 or 1).
func (b *Band) SyncTone(bank int) float64 { return b.sync[bank%banks] }

// DataTone returns the frequency of value val on the given lane
// during an epoch of the given parity.
func (b *Band) DataTone(epoch, lane, val int) float64 {
	return b.tone[epoch%banks][lane*symbolValues+val%symbolValues]
}

// String describes the band.
func (b *Band) String() string {
	last := b.tone[1][len(b.tone[1])-1]
	return fmt.Sprintf("ModemBand(lanes=%d sync=%.0f/%.0fHz data=%.0f..%.0fHz %s)",
		b.cfg.Lanes, b.sync[0], b.sync[1], b.tone[0][0], last, b.cfg.FEC.Name())
}
