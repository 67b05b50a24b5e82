package modem

import (
	"errors"
	"fmt"
)

// Frame layout on the air, in symbol epochs:
//
//	epoch 0              sync tone A (the bank-A pilot, one
//	                     full-period emission)
//	epoch 1              sync tone B (likewise; the receiver locks
//	                     its clock from whichever pilots survive)
//	epochs 2..2+H-1      header: {len, fec, seq, crc8} sent twice
//	                     (8 bytes = 16 nibbles, H = 16/lanes = 4)
//	epochs 2+H..         body: FEC(payload ‖ CRC-16), 2 nibbles per
//	                     coded byte, lanes nibbles per epoch, padded
//	                     with zero nibbles to the epoch boundary
//
// The header is its own integrity domain (per-copy CRC-8, fall back
// to the second copy) because the receiver needs the payload length
// and FEC identity before it can size — let alone decode — the body.

// MaxPayload is the largest payload one frame can carry: the header's
// length field is one byte.
const MaxPayload = 255

// headerBytes is one header copy: payload length, FEC id, sequence
// number, CRC-8 over the first three.
const headerBytes = 4

// headerCopies is how many times the header is sent.
const headerCopies = 2

// ErrPayloadEmpty rejects zero-length payloads: an empty frame has
// nothing to CRC and nothing to deliver.
var ErrPayloadEmpty = errors.New("modem: payload is empty")

// ErrPayloadTooLong rejects payloads over MaxPayload bytes; split
// long transfers into sequenced frames.
var ErrPayloadTooLong = fmt.Errorf("modem: payload exceeds %d bytes", MaxPayload)

// header is the decoded frame header.
type header struct {
	PayloadLen int
	FECID      byte
	Seq        byte
}

// encodeHeader renders the header's 4 bytes once.
func encodeHeader(h header, dst []byte) {
	dst[0] = byte(h.PayloadLen)
	dst[1] = h.FECID
	dst[2] = h.Seq
	dst[3] = crc8(dst[:3])
}

// parseHeader validates one header copy.
func parseHeader(b []byte) (header, bool) {
	if len(b) < headerBytes || crc8(b[:3]) != b[3] {
		return header{}, false
	}
	return header{PayloadLen: int(b[0]), FECID: b[1], Seq: b[2]}, true
}

// geometry is a frame's epoch layout for a given body size. Both
// ends compute it from the same input, so they agree on where every
// nibble lives.
type geometry struct {
	hdrEpochs   int // header epochs
	bodyEpochs  int // body epochs
	totalEpochs int // sync + header + body
}

// frameGeometry sizes a frame carrying codedLen body bytes.
func frameGeometry(codedLen int) geometry {
	hdrNibbles := 2 * headerBytes * headerCopies
	g := geometry{
		hdrEpochs:  (hdrNibbles + lanes - 1) / lanes,
		bodyEpochs: (2*codedLen + lanes - 1) / lanes,
	}
	g.totalEpochs = 2 + g.hdrEpochs + g.bodyEpochs
	return g
}

// nibbleOf returns nibble i of the byte slice (two nibbles per byte,
// high first); indices past the end read as zero padding.
func nibbleOf(b []byte, i int) int {
	if i/2 >= len(b) {
		return 0
	}
	v := b[i/2]
	if i%2 == 0 {
		return int(v >> 4)
	}
	return int(v & 0x0F)
}

// setNibble writes nibble i of the byte slice (two per byte, high
// first); indices past the end are dropped.
func setNibble(b []byte, i, v int) {
	if i/2 >= len(b) {
		return
	}
	if i%2 == 0 {
		b[i/2] = b[i/2]&0x0F | byte(v)<<4
	} else {
		b[i/2] = b[i/2]&0xF0 | byte(v)&0x0F
	}
}

// crc16 is CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) — the frame
// body's end-to-end integrity check.
func crc16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// crc8 is CRC-8 (poly 0x07, init 0x00) — the header copy check.
func crc8(data []byte) byte {
	var crc byte
	for _, b := range data {
		crc ^= b
		for i := 0; i < 8; i++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}
