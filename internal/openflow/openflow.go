// Package openflow provides the one OpenFlow-like control-plane
// message the Music-Defined Networking controller sends: a Flow-MOD
// that installs a rule on a switch, the closing step of every MDN
// application. Flow-MODs have a compact binary wire format so the
// control channel can run over a real transport as well as inside the
// simulator.
package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/netip"

	"mdn/internal/netsim"
)

// MessageType discriminates control messages on the wire.
type MessageType uint8

// TypeFlowMod is the only control message type: it installs a flow
// rule.
const TypeFlowMod MessageType = 1

// String names the message type.
func (t MessageType) String() string {
	if t == TypeFlowMod {
		return "flow-mod"
	}
	return "unknown"
}

// FlowModCommand selects what a Flow-MOD does.
type FlowModCommand uint8

// FlowAdd installs the rule; it is the only Flow-MOD command.
const FlowAdd FlowModCommand = 0

// FlowMod asks a switch to add a rule.
type FlowMod struct {
	Command  FlowModCommand
	Priority int32
	Match    netsim.Match
	Action   netsim.Action
	// IdleTimeout and HardTimeout carry OpenFlow rule expiry in
	// seconds (0 = none).
	IdleTimeout float64
	HardTimeout float64
}

// Apply installs the Flow-MOD's rule on a simulated switch and
// returns it.
func (m FlowMod) Apply(sw *netsim.Switch) *netsim.Rule {
	return sw.InstallRule(netsim.Rule{
		Priority:    int(m.Priority),
		Match:       m.Match,
		Action:      m.Action,
		IdleTimeout: m.IdleTimeout,
		HardTimeout: m.HardTimeout,
	})
}

// Wire format: every message is
//
//	magic   uint16  0x0F4D ("OF"+"M"usic)
//	type    uint8
//	length  uint16  payload bytes
//	payload ...
//
// Integers are big-endian, network order.
const magic = 0x0F4D

// Wire-format limits. Fields that cannot fit are a marshal error —
// never a silent truncating cast, which would emit desynced garbage
// the peer misparses.
const (
	// MaxActionPorts is the most ports one action can list on the wire.
	MaxActionPorts = 255
	// MaxPayload is the largest payload the 16-bit length field frames.
	MaxPayload = 1<<16 - 1
	// maxPort keeps port numbers inside int32 so they survive the
	// uint32 wire field on every platform.
	maxPort = 1<<31 - 1
)

// ErrBadMessage reports a control message that cannot be decoded (or
// encoded): corrupt framing, an unknown type, command, or action kind,
// or field values outside their domain.
var ErrBadMessage = errors.New("openflow: malformed message")

// ErrTooLarge reports a message field that exceeds a wire-format limit
// and would previously have been silently truncated.
var ErrTooLarge = errors.New("openflow: field exceeds wire-format limit")

const headerLen = 5

// checkAddr accepts the zero Addr (wildcard) and IPv4/IPv4-in-6
// addresses; anything else cannot ride the 4-byte wire field.
func checkAddr(a netip.Addr) error {
	if a.IsValid() && !a.Is4() && !a.Is4In6() {
		return fmt.Errorf("%w: address %s is not IPv4", ErrBadMessage, a)
	}
	return nil
}

func checkMatch(m netsim.Match) error {
	if err := checkAddr(m.Src); err != nil {
		return err
	}
	if err := checkAddr(m.Dst); err != nil {
		return err
	}
	if m.InPort < 0 || m.InPort > maxPort {
		return fmt.Errorf("%w: in-port %d outside [0, %d]", ErrBadMessage, m.InPort, maxPort)
	}
	return nil
}

// checkTimeout rejects values no rule can honour: negative, NaN, Inf.
func checkTimeout(which string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("%w: %s timeout %g", ErrBadMessage, which, v)
	}
	return nil
}

func putAddr(dst []byte, a netip.Addr) {
	if a.IsValid() {
		b := a.As4()
		copy(dst, b[:])
	}
}

func getAddr(src []byte) netip.Addr {
	var b [4]byte
	copy(b[:], src)
	if b == ([4]byte{}) {
		return netip.Addr{}
	}
	return netip.AddrFrom4(b)
}

func marshalMatch(dst []byte, m netsim.Match) {
	binary.BigEndian.PutUint32(dst[0:4], uint32(m.InPort))
	putAddr(dst[4:8], m.Src)
	putAddr(dst[8:12], m.Dst)
	binary.BigEndian.PutUint16(dst[12:14], m.SrcPort)
	binary.BigEndian.PutUint16(dst[14:16], m.DstPort)
	dst[16] = m.Proto
}

func unmarshalMatch(src []byte) netsim.Match {
	return netsim.Match{
		InPort:  int(binary.BigEndian.Uint32(src[0:4])),
		Src:     getAddr(src[4:8]),
		Dst:     getAddr(src[8:12]),
		SrcPort: binary.BigEndian.Uint16(src[12:14]),
		DstPort: binary.BigEndian.Uint16(src[14:16]),
		Proto:   src[16],
	}
}

const matchLen = 17

// Validate checks the Flow-MOD against the wire format's limits and
// field domains; MarshalFlowMod refuses anything Validate rejects.
func (m FlowMod) Validate() error {
	if m.Command != FlowAdd {
		return fmt.Errorf("%w: unknown flow-mod command %d", ErrBadMessage, m.Command)
	}
	if err := checkMatch(m.Match); err != nil {
		return err
	}
	if err := checkTimeout("idle", m.IdleTimeout); err != nil {
		return err
	}
	if err := checkTimeout("hard", m.HardTimeout); err != nil {
		return err
	}
	if !m.Action.Kind.Valid() {
		return fmt.Errorf("%w: unknown action kind %d", ErrBadMessage, m.Action.Kind)
	}
	if len(m.Action.Ports) > MaxActionPorts {
		return fmt.Errorf("%w: %d action ports, max %d", ErrTooLarge, len(m.Action.Ports), MaxActionPorts)
	}
	for _, p := range m.Action.Ports {
		if p < 0 || p > maxPort {
			return fmt.Errorf("%w: action port %d outside [0, %d]", ErrBadMessage, p, maxPort)
		}
	}
	return nil
}

// MarshalFlowMod encodes a Flow-MOD as one framed message, or reports
// why it cannot ride the wire format. Header and payload share one
// allocation.
func MarshalFlowMod(m FlowMod) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := 1 + 4 + matchLen + 16 + 1 + 1 + len(m.Action.Ports)*4
	if n > MaxPayload {
		return nil, fmt.Errorf("%w: payload %d bytes, max %d", ErrTooLarge, n, MaxPayload)
	}
	out := make([]byte, headerLen+n)
	binary.BigEndian.PutUint16(out[0:2], magic)
	out[2] = byte(TypeFlowMod)
	binary.BigEndian.PutUint16(out[3:5], uint16(n))
	payload := out[headerLen:]
	payload[0] = byte(m.Command)
	binary.BigEndian.PutUint32(payload[1:5], uint32(m.Priority))
	marshalMatch(payload[5:], m.Match)
	off := 5 + matchLen
	binary.BigEndian.PutUint64(payload[off:], math.Float64bits(m.IdleTimeout))
	binary.BigEndian.PutUint64(payload[off+8:], math.Float64bits(m.HardTimeout))
	off += 16
	payload[off] = byte(m.Action.Kind)
	payload[off+1] = byte(len(m.Action.Ports))
	for i, p := range m.Action.Ports {
		binary.BigEndian.PutUint32(payload[off+2+i*4:], uint32(p))
	}
	return out, nil
}

// Unmarshal decodes one framed message, returning the decoded FlowMod
// and the number of bytes consumed.
func Unmarshal(b []byte) (interface{}, int, error) {
	if len(b) < headerLen {
		return nil, 0, fmt.Errorf("%w: short header", ErrBadMessage)
	}
	if binary.BigEndian.Uint16(b[0:2]) != magic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrBadMessage)
	}
	t := MessageType(b[2])
	n := int(binary.BigEndian.Uint16(b[3:5]))
	if len(b) < headerLen+n {
		return nil, 0, fmt.Errorf("%w: truncated payload", ErrBadMessage)
	}
	payload := b[headerLen : headerLen+n]
	total := headerLen + n
	if t != TypeFlowMod {
		return nil, 0, fmt.Errorf("%w: unknown type %d", ErrBadMessage, t)
	}
	if len(payload) < 5+matchLen+16+2 {
		return nil, 0, fmt.Errorf("%w: short flow-mod", ErrBadMessage)
	}
	m := FlowMod{
		Command:  FlowModCommand(payload[0]),
		Priority: int32(binary.BigEndian.Uint32(payload[1:5])),
		Match:    unmarshalMatch(payload[5:]),
	}
	if m.Command != FlowAdd {
		return nil, 0, fmt.Errorf("%w: unknown flow-mod command %d", ErrBadMessage, m.Command)
	}
	if m.Match.InPort > maxPort {
		return nil, 0, fmt.Errorf("%w: match in-port outside [0, %d]", ErrBadMessage, maxPort)
	}
	off := 5 + matchLen
	m.IdleTimeout = math.Float64frombits(binary.BigEndian.Uint64(payload[off:]))
	m.HardTimeout = math.Float64frombits(binary.BigEndian.Uint64(payload[off+8:]))
	if checkTimeout("idle", m.IdleTimeout) != nil || checkTimeout("hard", m.HardTimeout) != nil {
		return nil, 0, fmt.Errorf("%w: bad flow-mod timeouts", ErrBadMessage)
	}
	off += 16
	m.Action.Kind = netsim.ActionKind(payload[off])
	if !m.Action.Kind.Valid() {
		return nil, 0, fmt.Errorf("%w: unknown action kind %d", ErrBadMessage, payload[off])
	}
	np := int(payload[off+1])
	if len(payload) != off+2+np*4 {
		return nil, 0, fmt.Errorf("%w: flow-mod ports length mismatch", ErrBadMessage)
	}
	for i := 0; i < np; i++ {
		port := binary.BigEndian.Uint32(payload[off+2+i*4:])
		if port > maxPort {
			return nil, 0, fmt.Errorf("%w: action port %d outside [0, %d]", ErrBadMessage, port, maxPort)
		}
		m.Action.Ports = append(m.Action.Ports, int(port))
	}
	return m, total, nil
}
