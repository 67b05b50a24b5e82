package mp

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(freq, dur, inten float64) bool {
		if math.IsNaN(freq) || math.IsNaN(dur) || math.IsNaN(inten) {
			return true
		}
		in := Message{Frequency: freq, Duration: dur, Intensity: inten}
		out, err := Unmarshal(Marshal(in))
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMarshalSize(t *testing.T) {
	if len(Marshal(Message{})) != WireSize {
		t.Errorf("size = %d", len(Marshal(Message{})))
	}
}

func TestUnmarshalRejects(t *testing.T) {
	good := Marshal(Message{Frequency: 440, Duration: 0.1, Intensity: 60})
	cases := map[string][]byte{
		"short":       good[:10],
		"bad magic":   append([]byte{'X', 'P'}, good[2:]...),
		"bad version": append([]byte{'M', 'P', 9}, good[3:]...),
	}
	for name, b := range cases {
		if _, err := Unmarshal(b); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
	nan := Marshal(Message{Frequency: math.NaN(), Duration: 1, Intensity: 1})
	if _, err := Unmarshal(nan); !errors.Is(err, ErrBadMessage) {
		t.Errorf("NaN: err = %v", err)
	}
}

func TestValidate(t *testing.T) {
	valid := Message{Frequency: 700, Duration: 0.05, Intensity: 60}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid message rejected: %v", err)
	}
	bad := []Message{
		{Frequency: 0, Duration: 0.05, Intensity: 60},
		{Frequency: -5, Duration: 0.05, Intensity: 60},
		{Frequency: 30000, Duration: 0.05, Intensity: 60},
		{Frequency: 700, Duration: 0, Intensity: 60},
		{Frequency: 700, Duration: 61, Intensity: 60},
		{Frequency: 700, Duration: 0.05, Intensity: -1},
		{Frequency: 700, Duration: 0.05, Intensity: 130},
	}
	for i, m := range bad {
		if m.Validate() == nil {
			t.Errorf("bad message %d accepted: %+v", i, m)
		}
	}
}

func TestEncoderDecoderStream(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	msgs := []Message{
		{Frequency: 500, Duration: 0.05, Intensity: 60},
		{Frequency: 600, Duration: 0.03, Intensity: 50},
		{Frequency: 700, Duration: 0.10, Intensity: 70},
	}
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf)
	for i, want := range msgs {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got != want {
			t.Errorf("msg %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := dec.Decode(); !errors.Is(err, io.EOF) {
		t.Errorf("stream end err = %v, want EOF", err)
	}
}

func TestEncoderRejectsInvalid(t *testing.T) {
	enc := NewEncoder(io.Discard)
	if err := enc.Encode(Message{Frequency: -1, Duration: 1, Intensity: 1}); err == nil {
		t.Error("invalid message should not encode")
	}
}

func TestDecoderMidMessageCut(t *testing.T) {
	wire := Marshal(Message{Frequency: 440, Duration: 0.1, Intensity: 60})
	dec := NewDecoder(bytes.NewReader(wire[:WireSize-3]))
	if _, err := dec.Decode(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want ErrUnexpectedEOF", err)
	}
}
