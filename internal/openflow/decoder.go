package openflow

import (
	"encoding/binary"
	"io"
)

// Encoder writes framed Flow-MODs to a stream.
type Encoder struct {
	w io.Writer
}

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Encode marshals and writes one Flow-MOD.
func (e *Encoder) Encode(m FlowMod) error {
	wire, err := MarshalFlowMod(m)
	if err != nil {
		return err
	}
	_, err = e.w.Write(wire)
	return err
}

// Decoder reads framed control messages from a byte stream, the
// OpenFlow-side mirror of mp.Decoder. Unlike a flat Unmarshal over a
// buffer, it survives corruption: when a frame fails to parse — bad
// magic, impossible length, or a payload the strict codec rejects —
// the decoder discards bytes until the next occurrence of the frame
// magic and tries again. A flipped byte therefore costs one message,
// not the whole connection.
type Decoder struct {
	r   io.Reader
	buf []byte
	err error // sticky transport error

	// Resyncs counts the times the decoder discarded data to re-find a
	// frame boundary.
	Resyncs uint64
	// SkippedBytes counts the bytes discarded across all resyncs.
	SkippedBytes uint64
	// BadFrames counts frames that carried the magic but failed strict
	// decoding.
	BadFrames uint64
}

// NewDecoder returns a decoder reading from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// fill grows the buffer to at least n bytes, reporting false once the
// stream cannot provide them.
func (d *Decoder) fill(n int) bool {
	for len(d.buf) < n && d.err == nil {
		chunk := make([]byte, 4096)
		k, err := d.r.Read(chunk)
		if k > 0 {
			d.buf = append(d.buf, chunk[:k]...)
		}
		if err != nil {
			d.err = err
		}
	}
	return len(d.buf) >= n
}

// skip discards n buffered bytes, recording them against one resync.
func (d *Decoder) skip(n int) {
	d.buf = d.buf[n:]
	d.SkippedBytes += uint64(n)
	d.Resyncs++
}

// magicIndex returns the offset of the first frame magic in the
// buffer, or -1.
func magicIndex(b []byte) int {
	for i := 0; i+1 < len(b); i++ {
		if binary.BigEndian.Uint16(b[i:]) == magic {
			return i
		}
	}
	return -1
}

// Decode returns the next message that survives strict decoding,
// resynchronising past corruption. It returns io.EOF at a clean stream
// end and io.ErrUnexpectedEOF when the stream ends inside unusable
// bytes.
func (d *Decoder) Decode() (interface{}, error) {
	for {
		if !d.fill(headerLen) {
			n := len(d.buf)
			if n == 0 && (d.err == io.EOF || d.err == nil) {
				return nil, io.EOF
			}
			if n > 0 {
				d.skip(n)
			}
			if d.err == io.EOF || d.err == nil {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, d.err
		}
		// Align the buffer on the frame magic.
		if i := magicIndex(d.buf); i != 0 {
			if i < 0 {
				// No magic anywhere; keep the last byte, it may be
				// the first half of one.
				d.skip(len(d.buf) - 1)
				if !d.fill(headerLen) {
					continue // surface EOF handling above
				}
			} else {
				d.skip(i)
			}
			continue
		}
		payloadLen := int(binary.BigEndian.Uint16(d.buf[3:5]))
		total := headerLen + payloadLen
		if !d.fill(total) {
			// The stream ended (or broke) inside this frame; the
			// advertised length may itself be corrupt, so hunt for a
			// later magic before giving up.
			d.skip(2)
			continue
		}
		msg, consumed, err := Unmarshal(d.buf[:total])
		if err != nil {
			// Framed but rotten: step past this magic and resync.
			d.BadFrames++
			d.skip(2)
			continue
		}
		d.buf = d.buf[consumed:]
		return msg, nil
	}
}
