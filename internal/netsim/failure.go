package netsim

// Link-failure modelling: the paper's core motivation (Section 1) is
// that in-band management traffic dies with the data plane, while an
// out-of-band channel — sound — survives. SetLinkState lets
// experiments cut a link mid-run and watch which control path keeps
// working.

// SetDown marks the port (and its peer) up or down. Packets sent into
// a downed port — including those already queued — are dropped.
func (p *Port) SetDown(down bool) {
	p.down = down
	if p.peer != nil {
		p.peer.down = down
	}
	if down {
		// Drain the output queues: frames on a dead wire are lost
		// (and recycled if pool-born).
		for pkt := p.Out.Pop(); pkt != nil; pkt = p.Out.Pop() {
			p.lostOnDown++
			p.sim.releasePacket(pkt)
		}
		if p.peer != nil {
			for pkt := p.peer.Out.Pop(); pkt != nil; pkt = p.peer.Out.Pop() {
				p.peer.lostOnDown++
				p.peer.sim.releasePacket(pkt)
			}
		}
	}
	notify := func(side *Port) {
		if side == nil {
			return
		}
		if sw, ok := side.Owner.(*Switch); ok && sw.OnPortState != nil {
			sw.OnPortState(side.Index, !down)
		}
	}
	notify(p)
	notify(p.peer)
}

// Down reports whether the port is administratively or physically
// down.
func (p *Port) Down() bool { return p.down }

// LostOnDown returns packets flushed from this port's queue by a
// link-down event.
func (p *Port) LostOnDown() uint64 { return p.lostOnDown }
