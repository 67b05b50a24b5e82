package modem

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// FEC is a pluggable forward-error-correction scheme applied to the
// frame body (payload ‖ CRC-16). Encode expands data into coded
// bytes; Decode inverts it given the original data length (which the
// receiver learns from the frame header), reporting how many symbol
// corrections it made. A FEC is identified on the wire by a one-byte
// id so the receiver can reconstruct the transmitter's scheme from
// the header alone.
type FEC interface {
	// Name is the scheme's human-readable name.
	Name() string
	// ID is the wire identity carried in the frame header: the high
	// nibble selects the scheme, the low nibble its parameter.
	ID() byte
	// CodedLen returns the coded size of dataLen bytes.
	CodedLen(dataLen int) int
	// Encode returns the coded form of data.
	Encode(data []byte) []byte
	// Decode recovers dataLen bytes from coded, correcting what it
	// can; corrected counts repaired units (bits for Hamming, bytes
	// for Reed-Solomon). It fails only when coded is too short or the
	// error pattern exceeds the scheme's correction capacity in a
	// detectable way — an undetected miscorrection is caught by the
	// frame CRC above.
	Decode(coded []byte, dataLen int) (data []byte, corrected int, err error)

	// appendEncode is Encode appending to dst, and appendDecode is
	// Decode appending to dst; on error appendDecode returns dst with
	// whatever it had appended. The modem's transmitter and receiver
	// call them with reused buffers, so a frame costs no garbage.
	appendEncode(dst, data []byte) []byte
	appendDecode(dst, coded []byte, dataLen int) (data []byte, corrected int, err error)
}

// extend appends n zero bytes to dst and returns the result and the
// appended tail. It grows dst only when its capacity is short; the
// append(dst, make([]byte, n)...) idiom allocates when the race
// detector instruments the build.
func extend(dst []byte, n int) ([]byte, []byte) {
	dst = slices.Grow(dst, n)
	tail := dst[len(dst) : len(dst)+n]
	clear(tail)
	return dst[:len(dst)+n], tail
}

// encodeNew and decodeNew are the exported Encode and Decode: the
// append forms into a fresh buffer.
func encodeNew(f FEC, data []byte) []byte {
	return f.appendEncode(make([]byte, 0, f.CodedLen(len(data))), data)
}

func decodeNew(f FEC, coded []byte, dataLen int) ([]byte, int, error) {
	out, corrected, err := f.appendDecode(make([]byte, 0, dataLen), coded, dataLen)
	if err != nil {
		return nil, corrected, err
	}
	return out, corrected, nil
}

// ErrCodedTooShort reports a coded body shorter than the scheme
// requires for the claimed data length.
var ErrCodedTooShort = errors.New("modem: coded body shorter than scheme requires")

// ErrUnknownFEC reports a header FEC id no registered scheme claims.
var ErrUnknownFEC = errors.New("modem: unknown FEC id")

// FEC wire ids (high nibble).
const (
	fecKindNone    = 0x0
	fecKindHamming = 0x1
	fecKindRS      = 0x2
)

// FECByID reconstructs the scheme a frame header names.
func FECByID(id byte) (FEC, error) {
	switch id >> 4 {
	case fecKindNone:
		return FECNone{}, nil
	case fecKindHamming:
		return FECHamming{}, nil
	case fecKindRS:
		parity := int(id&0x0F) * 8
		if parity == 0 {
			return nil, fmt.Errorf("%w: %#02x (zero RS parity)", ErrUnknownFEC, id)
		}
		return FECRS{Parity: parity}, nil
	default:
		return nil, fmt.Errorf("%w: %#02x", ErrUnknownFEC, id)
	}
}

// FECByName resolves a scheme from its configuration name: "none",
// "hamming7_4" (or "hamming"), "rs" (default parity), or "rs_pN" for
// N parity bytes.
func FECByName(name string) (FEC, error) {
	switch {
	case name == "" || name == "none":
		return FECNone{}, nil
	case name == "hamming" || name == "hamming7_4":
		return FECHamming{}, nil
	case name == "rs":
		return FECRS{}, nil
	case strings.HasPrefix(name, "rs_p"):
		p, err := strconv.Atoi(name[len("rs_p"):])
		if err != nil || p <= 0 || p > 120 || p%8 != 0 {
			return nil, fmt.Errorf("modem: bad RS parity in %q (want a positive multiple of 8 ≤ 120)", name)
		}
		return FECRS{Parity: p}, nil
	default:
		return nil, fmt.Errorf("modem: unknown FEC name %q", name)
	}
}

// FECNone is the identity scheme: no overhead, no protection beyond
// the frame CRC.
type FECNone struct{}

// Name implements FEC.
func (FECNone) Name() string { return "none" }

// ID implements FEC.
func (FECNone) ID() byte { return fecKindNone << 4 }

// CodedLen implements FEC.
func (FECNone) CodedLen(dataLen int) int { return dataLen }

// Encode implements FEC.
func (f FECNone) Encode(data []byte) []byte { return encodeNew(f, data) }

// Decode implements FEC.
func (f FECNone) Decode(coded []byte, dataLen int) ([]byte, int, error) {
	return decodeNew(f, coded, dataLen)
}

func (FECNone) appendEncode(dst, data []byte) []byte { return append(dst, data...) }

func (FECNone) appendDecode(dst, coded []byte, dataLen int) ([]byte, int, error) {
	if len(coded) < dataLen {
		return dst, 0, ErrCodedTooShort
	}
	return append(dst, coded[:dataLen]...), 0, nil
}

// FECHamming is interleaved Hamming(7,4): every data nibble becomes a
// 7-bit codeword, and the codeword bits are block-interleaved —
// transmit-adjacent bits come from distinct codewords — so one
// corrupted 4-bit symbol lands one bit error in each of four
// codewords, all correctable, instead of an uncorrectable burst in
// one. Rate 4/7; corrects any error pattern that leaves at most one
// flipped bit per codeword — in particular any corruption confined to
// fewer than dataLen/2 consecutive transmitted symbols, however
// dense. Dense corruption spread across the whole frame can collide
// two errors into one codeword; use FECRS for hard guarantees there.
type FECHamming struct{}

// hamEnc maps a nibble (d3 d2 d1 d0, d3 most significant) to its
// 7-bit codeword; hamDec maps any 7-bit word to (nibble | corrected
// <<4) — Hamming(7,4) is a perfect code, so every word is within
// distance one of exactly one codeword.
var hamEnc [16]byte
var hamDec [128]byte

func init() {
	for d := 0; d < 16; d++ {
		d0, d1, d2, d3 := d&1, d>>1&1, d>>2&1, d>>3&1
		p0 := d0 ^ d1 ^ d3
		p1 := d0 ^ d2 ^ d3
		p2 := d1 ^ d2 ^ d3
		// Bit positions 1..7: p0 p1 d0 p2 d1 d2 d3 (parity at 1,2,4).
		w := p0<<6 | p1<<5 | d0<<4 | p2<<3 | d1<<2 | d2<<1 | d3
		hamEnc[d] = byte(w)
		hamDec[w] = byte(d)
	}
	for w := 0; w < 128; w++ {
		// Syndrome names the flipped bit position (1..7), 0 = clean.
		s0 := bitAt(w, 1) ^ bitAt(w, 3) ^ bitAt(w, 5) ^ bitAt(w, 7)
		s1 := bitAt(w, 2) ^ bitAt(w, 3) ^ bitAt(w, 6) ^ bitAt(w, 7)
		s2 := bitAt(w, 4) ^ bitAt(w, 5) ^ bitAt(w, 6) ^ bitAt(w, 7)
		syn := s0 | s1<<1 | s2<<2
		if syn == 0 {
			continue
		}
		fixed := w ^ 1<<(7-syn)
		hamDec[w] = hamDec[fixed] | 0x10
	}
}

// bitAt reads bit position p (1-based from the most significant of 7)
// of word w.
func bitAt(w, p int) int { return w >> (7 - p) & 1 }

// Name implements FEC.
func (FECHamming) Name() string { return "hamming7_4" }

// ID implements FEC.
func (FECHamming) ID() byte { return fecKindHamming << 4 }

// CodedLen implements FEC: 7 bits per nibble, packed into bytes.
func (FECHamming) CodedLen(dataLen int) int { return (14*dataLen + 7) / 8 }

// Encode implements FEC. The interleaver writes bit k of the stream
// from codeword k mod C, so the four bits of any transmitted symbol
// touch four distinct codewords whenever the body has at least two
// data bytes.
func (f FECHamming) Encode(data []byte) []byte { return encodeNew(f, data) }

// Decode implements FEC.
func (f FECHamming) Decode(coded []byte, dataLen int) ([]byte, int, error) {
	return decodeNew(f, coded, dataLen)
}

func (f FECHamming) appendEncode(dst, data []byte) []byte {
	c := 2 * len(data)
	dst, out := extend(dst, f.CodedLen(len(data)))
	for k := 0; k < 7*c; k++ {
		cw := hamEnc[nibbleOf(data, k%c)]
		if bitAt(int(cw), k/c+1) != 0 {
			out[k/8] |= 0x80 >> (k % 8)
		}
	}
	return dst
}

func (f FECHamming) appendDecode(dst, coded []byte, dataLen int) ([]byte, int, error) {
	if len(coded) < f.CodedLen(dataLen) {
		return dst, 0, ErrCodedTooShort
	}
	c := 2 * dataLen
	dst, out := extend(dst, dataLen)
	corrected := 0
	for i := 0; i < c; i++ {
		w := 0
		for j := 0; j < 7; j++ {
			k := j*c + i
			if coded[k/8]&(0x80>>(k%8)) != 0 {
				w |= 1 << (6 - j)
			}
		}
		d := hamDec[w]
		if d&0x10 != 0 {
			corrected++
		}
		setNibble(out, i, int(d&0x0F))
	}
	return dst, corrected, nil
}

// FECRS is Reed-Solomon over GF(256) (polynomial 0x11D): the body is
// split into blocks of at most 255−Parity data bytes, each extended
// with Parity check bytes; each block corrects up to Parity/2
// corrupted bytes at any positions. The workhorse scheme for the ≥5%
// symbol-corruption chaos floor — a corrupted 4-bit symbol damages at
// most one byte, so DefaultRSParity tolerates twice the sweep's
// nominal corruption rate on every block.
type FECRS struct {
	// Parity is the number of check bytes per block: a positive
	// multiple of 8 up to 120 (it must fit the id byte's low nibble).
	Parity int
}

// DefaultRSParity is the default Reed-Solomon overhead: 48 check
// bytes per block, correcting 24 corrupted bytes.
const DefaultRSParity = 48

// parity returns the clamped block parity.
func (f FECRS) parity() int {
	p := f.Parity
	if p <= 0 {
		p = DefaultRSParity
	}
	if p > 120 {
		p = 120
	}
	return (p + 7) / 8 * 8
}

// Name implements FEC.
func (f FECRS) Name() string { return fmt.Sprintf("rs_p%d", f.parity()) }

// ID implements FEC.
func (f FECRS) ID() byte { return fecKindRS<<4 | byte(f.parity()/8) }

// blocks returns how many RS blocks dataLen bytes occupy.
func (f FECRS) blocks(dataLen int) int {
	max := 255 - f.parity()
	n := (dataLen + max - 1) / max
	if n == 0 {
		n = 1
	}
	return n
}

// CodedLen implements FEC.
func (f FECRS) CodedLen(dataLen int) int {
	return dataLen + f.blocks(dataLen)*f.parity()
}

// Encode implements FEC. Blocks are near-equal-sized so no block is
// disproportionately exposed.
func (f FECRS) Encode(data []byte) []byte { return encodeNew(f, data) }

// Decode implements FEC.
func (f FECRS) Decode(coded []byte, dataLen int) ([]byte, int, error) {
	return decodeNew(f, coded, dataLen)
}

func (f FECRS) appendEncode(dst, data []byte) []byte {
	p := f.parity()
	nb := f.blocks(len(data))
	for b := 0; b < nb; b++ {
		lo, hi := b*len(data)/nb, (b+1)*len(data)/nb
		block := data[lo:hi]
		dst = append(dst, block...)
		dst = appendRSParity(dst, block, p)
	}
	return dst
}

func (f FECRS) appendDecode(dst, coded []byte, dataLen int) ([]byte, int, error) {
	p := f.parity()
	nb := f.blocks(dataLen)
	if len(coded) < f.CodedLen(dataLen) {
		return dst, 0, ErrCodedTooShort
	}
	corrected := 0
	off := 0
	for b := 0; b < nb; b++ {
		lo, hi := b*dataLen/nb, (b+1)*dataLen/nb
		// blocks sizes every block to at most 255 bytes with parity.
		var buf [255]byte
		n := hi - lo + p
		block := buf[:n]
		copy(block, coded[off:off+n])
		off += n
		fixed, err := rsCorrect(block, p)
		if err != nil {
			return dst, corrected, err
		}
		corrected += fixed
		dst = append(dst, block[:hi-lo]...)
	}
	return dst, corrected, nil
}
