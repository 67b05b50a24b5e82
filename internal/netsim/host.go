package netsim

import "net/netip"

// Host is an end system with a single network port.
type Host struct {
	// Name is the unique host name.
	Name string
	// Addr is the host's address.
	Addr netip.Addr

	// OnReceive, when set, observes every delivered packet.
	OnReceive func(pkt *Packet)

	sim  *Sim
	port *Port

	// RxPackets counts delivered packets.
	RxPackets uint64
	// RxBytes counts delivered bytes.
	RxBytes uint64
	// TxPackets counts sent packets.
	TxPackets uint64
	// TxBytes counts sent bytes.
	TxBytes uint64

	nextPktID uint64
}

// Sample is one point of a sampled time series.
type Sample struct {
	// Time in virtual seconds.
	Time float64
	// Value of the sampled quantity.
	Value float64
}

// NewHost creates a host with the given address.
func NewHost(sim *Sim, name string, addr netip.Addr) *Host {
	return &Host{Name: name, Addr: addr, sim: sim}
}

func (h *Host) attachPort(p *Port) {
	if h.port != nil {
		panic("netsim: host " + h.Name + " already connected")
	}
	h.port = p
}

// Port returns the host's single port (nil before Connect).
func (h *Host) Port() *Port { return h.port }

// Receive implements Node.
func (h *Host) Receive(pkt *Packet, _ int) {
	h.RxPackets++
	h.RxBytes += uint64(pkt.Size)
	if h.OnReceive != nil {
		h.OnReceive(pkt)
	}
	// Delivery is the end of the packet's life; recycle it. With the
	// pool enabled, OnReceive must not retain the pointer.
	h.sim.releasePacket(pkt)
}

// Send transmits one packet with the given flow and size right now.
func (h *Host) Send(flow FiveTuple, size int) {
	if h.port == nil {
		return
	}
	h.nextPktID++
	h.TxPackets++
	h.TxBytes += uint64(size)
	pkt := h.sim.newPacket()
	pkt.ID = h.nextPktID
	pkt.Flow = flow
	pkt.Size = size
	pkt.CreatedAt = h.sim.Now()
	h.port.Send(pkt)
}
