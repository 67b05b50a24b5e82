package core

import (
	"errors"
	"fmt"
)

// MelodyCodec encodes arbitrary bytes as a tone sequence (a melody)
// and decodes confirmed onsets back into bytes. Section 4 observes
// that sounds in sequence can implement "any finite state machine";
// this codec is the constructive version: 16 frequencies carry one
// nibble each, a 17th start-of-message marker frames transmissions.
// It is what turns the port-knocking trick into general out-of-band
// signalling (e.g. transmitting an authentication nonce).
type MelodyCodec struct {
	start   float64
	nibbles [16]float64

	state   int // -1 idle, otherwise nibble count within message
	current []byte
	half    byte
	haveHi  bool
	onset   *OnsetFilter

	// Messages holds completed decoded messages, bounded like every
	// other application log: at most historyMax entries are kept,
	// oldest evicted first and counted in MessagesDropped.
	Messages [][]byte
	// MessagesDropped counts messages evicted by the bound.
	MessagesDropped uint64
	// Overflows counts in-progress decodes abandoned because the
	// channel fed more than MaxMelodyBytes of nibbles without a
	// terminating start marker (see consume).
	Overflows uint64
}

// NewMelodyCodec allocates 17 guard-banded frequencies (start marker
// + 16 nibble tones) under the given name.
func NewMelodyCodec(plan *FrequencyPlan, name string) (*MelodyCodec, error) {
	freqs, err := plan.AllocateSpaced(name+"/melody", 17, DefaultStride)
	if err != nil {
		return nil, err
	}
	mc := &MelodyCodec{start: freqs[0], state: -1}
	copy(mc.nibbles[:], freqs[1:])
	return mc, nil
}

// Frequencies returns the codec's 17 tones (start marker first).
func (mc *MelodyCodec) Frequencies() []float64 {
	out := make([]float64, 0, 17)
	out = append(out, mc.start)
	out = append(out, mc.nibbles[:]...)
	return out
}

// MaxMelodyBytes bounds message size on both sides of the channel:
// long melodies monopolise the sound channel, and the decoder must
// not grow without limit on a noisy channel that never terminates a
// message.
const MaxMelodyBytes = 64

// ErrMelodyTooLong bounds message size: long melodies monopolise the
// sound channel.
var ErrMelodyTooLong = errors.New("core: melody message exceeds 64 bytes")

// ErrMelodyEmpty rejects zero-length messages at encode time. An
// empty message's frame (start,start) is indistinguishable on the air
// from the terminator of the previous message followed by the opener
// of the next, so the decoder cannot round-trip it; encoding refuses
// it rather than silently dropping it on decode.
var ErrMelodyEmpty = errors.New("core: melody message is empty")

// Encode returns the tone sequence for msg: the start marker, then
// two tones per byte (high nibble first).
func (mc *MelodyCodec) Encode(msg []byte) ([]float64, error) {
	if len(msg) == 0 {
		return nil, ErrMelodyEmpty
	}
	if len(msg) > MaxMelodyBytes {
		return nil, ErrMelodyTooLong
	}
	out := make([]float64, 0, 1+2*len(msg))
	out = append(out, mc.start)
	for _, b := range msg {
		out = append(out, mc.nibbles[b>>4], mc.nibbles[b&0x0F])
	}
	// A trailing start marker terminates the message (and is ready
	// to start the next one).
	out = append(out, mc.start)
	return out, nil
}

// Transmit plays an encoded message through a voice, one tone per
// slot slightly wider than VoiceMinGap (so repeated nibbles
// are never rate-limited away), starting at time at on the voice's
// simulator clock. It returns the time the last tone starts.
func (mc *MelodyCodec) Transmit(voice *Voice, at float64, msg []byte) (float64, error) {
	tones, err := mc.Encode(msg)
	if err != nil {
		return 0, err
	}
	slot := VoiceMinGap + 0.01
	for i, f := range tones {
		f := f
		voice.sim.Schedule(at+float64(i)*slot, func() { voice.Play(f) })
	}
	return at + float64(len(tones)-1)*slot, nil
}

// nibbleOf maps a frequency to its nibble value (-1 if not a nibble
// tone).
func (mc *MelodyCodec) nibbleOf(freq float64) int {
	for i, f := range mc.nibbles {
		if f == freq {
			return i
		}
	}
	return -1
}

// HandleWindow consumes controller windows (wire via
// Controller.SubscribeWindows through an OnsetFilter-free path — the
// codec runs its own onset confirmation).
func (mc *MelodyCodec) HandleWindow(_ float64, dets []Detection) {
	if mc.onset == nil {
		mc.onset = NewOnsetFilter()
	}
	for _, det := range mc.onset.Step(dets) {
		mc.consume(det.Frequency)
	}
}

func (mc *MelodyCodec) consume(freq float64) {
	if freq == mc.start {
		if mc.state >= 0 && len(mc.current) > 0 && !mc.haveHi {
			// Complete message terminated by the marker.
			msg := make([]byte, len(mc.current))
			copy(msg, mc.current)
			mc.Messages = appendBounded(mc.Messages, msg, historyMax, &mc.MessagesDropped)
		}
		mc.state = 0
		mc.current = mc.current[:0]
		mc.haveHi = false
		return
	}
	if mc.state < 0 {
		return // tones before any start marker are ignored
	}
	n := mc.nibbleOf(freq)
	if n < 0 {
		return
	}
	if len(mc.current) >= MaxMelodyBytes {
		// Decode-side mirror of ErrMelodyTooLong: no conforming sender
		// produces this, so the start marker must have been lost to
		// noise and we are concatenating two (or more) messages.
		// Abandon the hopeless partial instead of growing forever and
		// wait for the next start marker to re-frame.
		mc.Overflows++
		mc.state = -1
		mc.current = mc.current[:0]
		mc.haveHi = false
		return
	}
	if !mc.haveHi {
		mc.half = byte(n) << 4
		mc.haveHi = true
	} else {
		mc.current = append(mc.current, mc.half|byte(n))
		mc.haveHi = false
	}
	mc.state++
}

// String describes the codec's band.
func (mc *MelodyCodec) String() string {
	return fmt.Sprintf("MelodyCodec(start=%.0fHz nibbles=%.0f..%.0fHz)",
		mc.start, mc.nibbles[0], mc.nibbles[15])
}
