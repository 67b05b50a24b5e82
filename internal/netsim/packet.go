package netsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/netip"
)

// Protocol numbers (IANA) used by the simulator.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// FiveTuple identifies a flow, exactly as the paper's heavy-hitter
// application hashes it: source/destination IP, source/destination
// port, and protocol.
type FiveTuple struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
	Proto            uint8
}

// String renders the tuple in the usual proto src:sport>dst:dport form.
func (f FiveTuple) String() string {
	return fmt.Sprintf("%d %s:%d>%s:%d", f.Proto, f.Src, f.SrcPort, f.Dst, f.DstPort)
}

// Reverse returns the tuple of the reply direction.
func (f FiveTuple) Reverse() FiveTuple {
	return FiveTuple{Src: f.Dst, Dst: f.Src, SrcPort: f.DstPort, DstPort: f.SrcPort, Proto: f.Proto}
}

// Hash returns a stable 64-bit FNV-1a hash of the tuple. The MDN
// heavy-hitter application maps this hash onto its frequency set.
func (f FiveTuple) Hash() uint64 {
	h := fnv.New64a()
	b := f.Src.As4()
	h.Write(b[:])
	b = f.Dst.As4()
	h.Write(b[:])
	var p [5]byte
	binary.BigEndian.PutUint16(p[0:2], f.SrcPort)
	binary.BigEndian.PutUint16(p[2:4], f.DstPort)
	p[4] = f.Proto
	h.Write(p[:])
	return h.Sum64()
}

// DefaultPacketSize is the MTU-sized packet used by generators, in
// bytes.
const DefaultPacketSize = 1500

// Packet is one simulated datagram.
type Packet struct {
	// ID is unique per simulation, assigned by the generator.
	ID uint64
	// Flow is the packet's five-tuple.
	Flow FiveTuple
	// Size in bytes (headers included).
	Size int
	// CreatedAt is the send time at the origin host.
	CreatedAt float64
	// Hops counts switch traversals, to catch forwarding loops.
	Hops int
	// Payload carries application bytes when a protocol rides the
	// simulated network (e.g. Music Protocol frames to a Pi). Size
	// still governs timing; Payload is opaque to the forwarding
	// plane.
	Payload []byte

	// pooled marks packets born from the simulator's free list
	// (EnablePacketPool); only those return to it on release.
	// Hand-built packets stay false and are garbage collected as
	// usual.
	pooled bool
}

// MustAddr parses a dotted-quad address, panicking on error; for
// topology construction in tests and experiments.
func MustAddr(s string) netip.Addr {
	return netip.MustParseAddr(s)
}

// MaxHops is the forwarding-loop guard: packets exceeding it are
// dropped and counted by the switch that saw them.
const MaxHops = 64
