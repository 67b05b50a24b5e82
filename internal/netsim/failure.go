package netsim

// Link-failure modelling: the paper's core motivation (Section 1) is
// that in-band management traffic dies with the data plane, while an
// out-of-band channel — sound — survives. SetLinkState lets
// experiments cut a link mid-run and watch which control path keeps
// working.

// SetDown marks the port (and its peer) up or down. Packets sent into
// a downed port — including those already queued — are dropped.
func (p *Port) SetDown(down bool) {
	sides := []*Port{p}
	if p.peer != nil {
		sides = append(sides, p.peer)
	}
	for _, side := range sides {
		side.down = down
		// Frames queued on a dead wire are lost (and recycled if
		// pool-born).
		for down && side.Out.Len() > 0 {
			side.lostOnDown++
			side.sim.releasePacket(side.Out.Pop())
		}
	}
}

// LostOnDown returns packets flushed from this port's queue by a
// link-down event.
func (p *Port) LostOnDown() uint64 { return p.lostOnDown }
