package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"mdn/internal/acoustic"
)

func TestMelodyEncodeShape(t *testing.T) {
	tb := newTestbed(80)
	mc, err := NewMelodyCodec(tb.plan, "s1")
	if err != nil {
		t.Fatal(err)
	}
	tones, err := mc.Encode([]byte{0xAB})
	if err != nil {
		t.Fatal(err)
	}
	// start, hi nibble, lo nibble, start.
	if len(tones) != 4 {
		t.Fatalf("tones = %v", tones)
	}
	freqs := mc.Frequencies()
	if tones[0] != freqs[0] || tones[3] != freqs[0] {
		t.Error("message not framed by start markers")
	}
	if tones[1] != freqs[1+0xA] || tones[2] != freqs[1+0xB] {
		t.Errorf("nibble tones wrong: %v", tones)
	}
}

func TestMelodyRejectsOversize(t *testing.T) {
	tb := newTestbed(81)
	mc, err := NewMelodyCodec(tb.plan, "s1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Encode(make([]byte, 65)); err != ErrMelodyTooLong {
		t.Errorf("err = %v, want ErrMelodyTooLong", err)
	}
}

func TestMelodyRejectsEmpty(t *testing.T) {
	// An empty message's frame (start,start) cannot be told apart from
	// the terminator+opener between two adjacent messages, so encode
	// rejects it with a typed error instead of letting decode silently
	// drop it.
	tb := newTestbed(88)
	mc, err := NewMelodyCodec(tb.plan, "s1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Encode(nil); err != ErrMelodyEmpty {
		t.Errorf("Encode(nil) err = %v, want ErrMelodyEmpty", err)
	}
	if _, err := mc.Encode([]byte{}); err != ErrMelodyEmpty {
		t.Errorf("Encode([]) err = %v, want ErrMelodyEmpty", err)
	}
}

func TestMelodyDecodeOverflowBounded(t *testing.T) {
	// A noisy channel that loses every terminating start marker must
	// not grow the decode state without limit: after MaxMelodyBytes
	// the partial is abandoned and the decoder waits to re-frame.
	tb := newTestbed(89)
	mc, err := NewMelodyCodec(tb.plan, "s1")
	if err != nil {
		t.Fatal(err)
	}
	mc.consume(mc.start)
	for i := 0; i < 10*MaxMelodyBytes; i++ {
		mc.consume(mc.nibbles[i%16])
		if len(mc.current) > MaxMelodyBytes {
			t.Fatalf("decode state grew to %d bytes", len(mc.current))
		}
	}
	if mc.Overflows == 0 {
		t.Error("overflow not counted")
	}
	if len(mc.Messages) != 0 {
		t.Errorf("overflowed stream decoded %d messages", len(mc.Messages))
	}
	// The decoder re-frames at the next start marker.
	msg := []byte{0x5A}
	tones, _ := mc.Encode(msg)
	for _, f := range tones {
		mc.consume(f)
	}
	if len(mc.Messages) != 1 || !bytes.Equal(mc.Messages[0], msg) {
		t.Fatalf("post-overflow decode = %v", mc.Messages)
	}
}

func TestMelodyMessagesBounded(t *testing.T) {
	tb := newTestbed(90)
	mc, err := NewMelodyCodec(tb.plan, "s1")
	if err != nil {
		t.Fatal(err)
	}
	const sent = historyMax + 2
	for i := 0; i < sent; i++ {
		tones, _ := mc.Encode([]byte{byte(i >> 8), byte(i)})
		for _, f := range tones {
			mc.consume(f)
		}
	}
	if len(mc.Messages) != historyMax {
		t.Fatalf("kept %d messages, want %d", len(mc.Messages), historyMax)
	}
	first, last := mc.Messages[0], mc.Messages[historyMax-1]
	if int(first[0])<<8|int(first[1]) != 2 || int(last[0])<<8|int(last[1]) != sent-1 {
		t.Errorf("kept messages %v..%v, want 2..%d", first, last, sent-1)
	}
	if mc.MessagesDropped != 2 {
		t.Errorf("dropped = %d, want 2", mc.MessagesDropped)
	}
}

func TestMelodyDecodeSymbolStream(t *testing.T) {
	// Pure decode logic: feed the symbol stream directly.
	tb := newTestbed(82)
	mc, err := NewMelodyCodec(tb.plan, "s1")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("ok!")
	tones, _ := mc.Encode(msg)
	for _, f := range tones {
		mc.consume(f)
	}
	if len(mc.Messages) != 1 || !bytes.Equal(mc.Messages[0], msg) {
		t.Fatalf("decoded %q", mc.Messages)
	}
}

func TestMelodyDecodeSymbolStreamProperty(t *testing.T) {
	tb := newTestbed(83)
	mc, err := NewMelodyCodec(tb.plan, "s1")
	if err != nil {
		t.Fatal(err)
	}
	f := func(msg []byte) bool {
		if len(msg) == 0 || len(msg) > 64 {
			return true
		}
		mc.Messages = nil
		tones, err := mc.Encode(msg)
		if err != nil {
			return false
		}
		for _, fr := range tones {
			mc.consume(fr)
		}
		return len(mc.Messages) == 1 && bytes.Equal(mc.Messages[0], msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMelodyIgnoresPreambleGarbage(t *testing.T) {
	tb := newTestbed(84)
	mc, err := NewMelodyCodec(tb.plan, "s1")
	if err != nil {
		t.Fatal(err)
	}
	// Nibble tones before any start marker must be ignored.
	mc.consume(mc.nibbles[3])
	mc.consume(mc.nibbles[7])
	tones, _ := mc.Encode([]byte{0x42})
	for _, f := range tones {
		mc.consume(f)
	}
	if len(mc.Messages) != 1 || mc.Messages[0][0] != 0x42 {
		t.Fatalf("decoded %v", mc.Messages)
	}
}

func TestMelodyOverAir(t *testing.T) {
	// Full loop: transmit through the room, decode at the
	// controller.
	tb := newTestbed(85)
	voice := tb.voiceAt("s1", acoustic.Position{X: 1.5})
	mc, err := NewMelodyCodec(tb.plan, "s1")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := tb.controller(mc.Frequencies())
	ctrl.SubscribeWindows(mc.HandleWindow)
	ctrl.Start(0)

	msg := []byte{0xDE, 0xAD}
	last, err := mc.Transmit(voice, 0.5, msg)
	if err != nil {
		t.Fatal(err)
	}
	tb.sim.RunUntil(last + 1)

	if len(mc.Messages) != 1 {
		t.Fatalf("decoded %d messages, want 1", len(mc.Messages))
	}
	if !bytes.Equal(mc.Messages[0], msg) {
		t.Errorf("decoded % x, want % x", mc.Messages[0], msg)
	}
}

func TestMelodyTwoMessagesOverAir(t *testing.T) {
	tb := newTestbed(86)
	voice := tb.voiceAt("s1", acoustic.Position{X: 1.5})
	mc, err := NewMelodyCodec(tb.plan, "s1")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := tb.controller(mc.Frequencies())
	ctrl.SubscribeWindows(mc.HandleWindow)
	ctrl.Start(0)

	m1 := []byte{0x01}
	m2 := []byte{0x55} // repeated nibble: exercises same-tone pacing
	end1, err := mc.Transmit(voice, 0.5, m1)
	if err != nil {
		t.Fatal(err)
	}
	end2, err := mc.Transmit(voice, end1+1, m2)
	if err != nil {
		t.Fatal(err)
	}
	tb.sim.RunUntil(end2 + 1)

	if len(mc.Messages) != 2 {
		t.Fatalf("decoded %d messages, want 2 (%v)", len(mc.Messages), mc.Messages)
	}
	if !bytes.Equal(mc.Messages[0], m1) || !bytes.Equal(mc.Messages[1], m2) {
		t.Errorf("decoded %v", mc.Messages)
	}
}

// TestMelodyOverAirProperty round-trips randomly generated messages
// through the full acoustic loop — encode, voice, room, controller,
// decode — including bytes whose nibbles repeat (0x33, 0x55), which
// exercise the same-tone pacing and the onset filter's release
// hysteresis back to back.
func TestMelodyOverAirProperty(t *testing.T) {
	tb := newTestbed(88)
	voice := tb.voiceAt("s1", acoustic.Position{X: 1.5})
	mc, err := NewMelodyCodec(tb.plan, "s1")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := tb.controller(mc.Frequencies())
	ctrl.Retention = 2
	ctrl.SubscribeWindows(mc.HandleWindow)
	ctrl.Start(0)

	rng := rand.New(rand.NewSource(880))
	var sent [][]byte
	at := 0.5
	for trial := 0; trial < 6; trial++ {
		msg := make([]byte, 1+rng.Intn(4))
		for i := range msg {
			msg[i] = byte(rng.Intn(256))
		}
		// Force a repeated-nibble byte into every other message.
		if trial%2 == 0 {
			msg[rng.Intn(len(msg))] = []byte{0x33, 0x55, 0xAA}[rng.Intn(3)]
		}
		end, err := mc.Transmit(voice, at, msg)
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, msg)
		at = end + 1
	}
	tb.sim.RunUntil(at + 1)

	if len(mc.Messages) != len(sent) {
		t.Fatalf("decoded %d messages, want %d (%v)", len(mc.Messages), len(sent), mc.Messages)
	}
	for i, msg := range sent {
		if !bytes.Equal(mc.Messages[i], msg) {
			t.Errorf("message %d: decoded % x, want % x", i, mc.Messages[i], msg)
		}
	}
}

// TestMelodyOverAirTruncated cuts a transmission mid-message — the
// tail tones, terminator included, never play — and then sends a
// fresh message. The codec is unframed beyond the start marker, so a
// truncation at a byte boundary is indistinguishable from a shorter
// message; the property is weaker but real: anything delivered for
// the truncated attempt is a strict prefix of the original, and the
// next message re-frames and decodes byte-exactly.
func TestMelodyOverAirTruncated(t *testing.T) {
	tb := newTestbed(89)
	voice := tb.voiceAt("s1", acoustic.Position{X: 1.5})
	mc, err := NewMelodyCodec(tb.plan, "s1")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := tb.controller(mc.Frequencies())
	ctrl.SubscribeWindows(mc.HandleWindow)
	ctrl.Start(0)

	// Play only the first half of the victim's tone sequence.
	victim := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	tones, err := mc.Encode(victim)
	if err != nil {
		t.Fatal(err)
	}
	slot := VoiceMinGap + 0.01
	cut := len(tones) / 2
	for i, f := range tones[:cut] {
		f := f
		tb.sim.Schedule(0.5+float64(i)*slot, func() { voice.Play(f) })
	}
	cutEnd := 0.5 + float64(cut)*slot

	fresh := []byte{0xCA, 0xFE}
	end, err := mc.Transmit(voice, cutEnd+1, fresh)
	if err != nil {
		t.Fatal(err)
	}
	tb.sim.RunUntil(end + 1)

	if len(mc.Messages) == 0 {
		t.Fatal("fresh message after truncation never decoded")
	}
	last := mc.Messages[len(mc.Messages)-1]
	if !bytes.Equal(last, fresh) {
		t.Errorf("post-truncation message: % x, want % x", last, fresh)
	}
	for _, m := range mc.Messages[:len(mc.Messages)-1] {
		if len(m) >= len(victim) || !bytes.Equal(m, victim[:len(m)]) {
			t.Errorf("truncated artifact % x is not a strict prefix of % x", m, victim)
		}
	}
}

// FuzzMelodyOverAir fuzzes the full acoustic round trip: any short
// non-empty payload must come back byte-exact through the simulated
// room.
func FuzzMelodyOverAir(f *testing.F) {
	f.Add([]byte{0x42})
	f.Add([]byte{0x33, 0x33})
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF})
	f.Fuzz(func(t *testing.T, msg []byte) {
		if len(msg) == 0 || len(msg) > 4 {
			t.Skip()
		}
		tb := newTestbed(90)
		voice := tb.voiceAt("s1", acoustic.Position{X: 1.5})
		mc, err := NewMelodyCodec(tb.plan, "s1")
		if err != nil {
			t.Fatal(err)
		}
		ctrl := tb.controller(mc.Frequencies())
		ctrl.Retention = 2
		ctrl.SubscribeWindows(mc.HandleWindow)
		ctrl.Start(0)

		end, err := mc.Transmit(voice, 0.5, msg)
		if err != nil {
			t.Fatal(err)
		}
		tb.sim.RunUntil(end + 1)

		if len(mc.Messages) != 1 || !bytes.Equal(mc.Messages[0], msg) {
			t.Fatalf("sent % x, decoded %v", msg, mc.Messages)
		}
	})
}

func TestMelodyString(t *testing.T) {
	tb := newTestbed(87)
	mc, err := NewMelodyCodec(tb.plan, "s1")
	if err != nil {
		t.Fatal(err)
	}
	if mc.String() == "" {
		t.Error("empty String()")
	}
}
