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
// returns it. The switch copies the action's ports. The returned rule
// is valid until the switch evicts it, which may then reuse the record
// for a later rule.
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

func appendAddr(dst []byte, a netip.Addr) []byte {
	var b [4]byte
	if a.IsValid() {
		b = a.As4()
	}
	return append(dst, b[:]...)
}

func getAddr(src []byte) netip.Addr {
	var b [4]byte
	copy(b[:], src)
	if b == ([4]byte{}) {
		return netip.Addr{}
	}
	return netip.AddrFrom4(b)
}

func appendMatch(dst []byte, m *netsim.Match) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.InPort))
	dst = appendAddr(dst, m.Src)
	dst = appendAddr(dst, m.Dst)
	dst = binary.BigEndian.AppendUint16(dst, m.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, m.DstPort)
	return append(dst, m.Proto)
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
	return appendFlowMod(nil, &m)
}

// appendFlowMod appends m's framed message to dst, growing it at most
// once, or reports why m cannot ride the wire format. Reusing dst's
// capacity makes an encode allocation-free.
func appendFlowMod(dst []byte, m *FlowMod) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return dst, err
	}
	n := 1 + 4 + matchLen + 16 + 1 + 1 + len(m.Action.Ports)*4
	if n > MaxPayload {
		return dst, fmt.Errorf("%w: payload %d bytes, max %d", ErrTooLarge, n, MaxPayload)
	}
	if cap(dst)-len(dst) < headerLen+n {
		dst = append(make([]byte, 0, len(dst)+headerLen+n), dst...)
	}
	dst = binary.BigEndian.AppendUint16(dst, magic)
	dst = append(dst, byte(TypeFlowMod))
	dst = binary.BigEndian.AppendUint16(dst, uint16(n))
	dst = append(dst, byte(m.Command))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Priority))
	dst = appendMatch(dst, &m.Match)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.IdleTimeout))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.HardTimeout))
	dst = append(dst, byte(m.Action.Kind), byte(len(m.Action.Ports)))
	for _, p := range m.Action.Ports {
		dst = binary.BigEndian.AppendUint32(dst, uint32(p))
	}
	return dst, nil
}

// Unmarshal decodes one framed message, returning the decoded FlowMod
// and the number of bytes consumed.
func Unmarshal(b []byte) (interface{}, int, error) {
	var m FlowMod
	n, err := decodeFlowMod(b, &m)
	if err != nil {
		return nil, 0, err
	}
	return m, n, nil
}

// decodeFlowMod decodes one framed Flow-MOD into m and returns the
// number of bytes consumed. The action's ports are appended to
// m.Action.Ports[:0], so a reused m decodes without allocating.
func decodeFlowMod(b []byte, m *FlowMod) (int, error) {
	if len(b) < headerLen {
		return 0, fmt.Errorf("%w: short header", ErrBadMessage)
	}
	if binary.BigEndian.Uint16(b[0:2]) != magic {
		return 0, fmt.Errorf("%w: bad magic", ErrBadMessage)
	}
	t := MessageType(b[2])
	n := int(binary.BigEndian.Uint16(b[3:5]))
	if len(b) < headerLen+n {
		return 0, fmt.Errorf("%w: truncated payload", ErrBadMessage)
	}
	payload := b[headerLen : headerLen+n]
	if t != TypeFlowMod {
		return 0, fmt.Errorf("%w: unknown type %d", ErrBadMessage, t)
	}
	if len(payload) < 5+matchLen+16+2 {
		return 0, fmt.Errorf("%w: short flow-mod", ErrBadMessage)
	}
	m.Command = FlowModCommand(payload[0])
	m.Priority = int32(binary.BigEndian.Uint32(payload[1:5]))
	m.Match = unmarshalMatch(payload[5:])
	if m.Command != FlowAdd {
		return 0, fmt.Errorf("%w: unknown flow-mod command %d", ErrBadMessage, m.Command)
	}
	if m.Match.InPort > maxPort {
		return 0, fmt.Errorf("%w: match in-port outside [0, %d]", ErrBadMessage, maxPort)
	}
	off := 5 + matchLen
	m.IdleTimeout = math.Float64frombits(binary.BigEndian.Uint64(payload[off:]))
	m.HardTimeout = math.Float64frombits(binary.BigEndian.Uint64(payload[off+8:]))
	if checkTimeout("idle", m.IdleTimeout) != nil || checkTimeout("hard", m.HardTimeout) != nil {
		return 0, fmt.Errorf("%w: bad flow-mod timeouts", ErrBadMessage)
	}
	off += 16
	m.Action.Kind = netsim.ActionKind(payload[off])
	if !m.Action.Kind.Valid() {
		return 0, fmt.Errorf("%w: unknown action kind %d", ErrBadMessage, payload[off])
	}
	np := int(payload[off+1])
	if len(payload) != off+2+np*4 {
		return 0, fmt.Errorf("%w: flow-mod ports length mismatch", ErrBadMessage)
	}
	m.Action.Ports = m.Action.Ports[:0]
	for i := 0; i < np; i++ {
		port := binary.BigEndian.Uint32(payload[off+2+i*4:])
		if port > maxPort {
			return 0, fmt.Errorf("%w: action port %d outside [0, %d]", ErrBadMessage, port, maxPort)
		}
		m.Action.Ports = append(m.Action.Ports, int(port))
	}
	return headerLen + n, nil
}
