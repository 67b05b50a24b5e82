package netsim

import (
	"fmt"
	"math"
	"net/netip"
)

// Match selects packets for a flow rule. Zero-valued fields are
// wildcards (any); InPort 0 matches any ingress port.
type Match struct {
	InPort           int
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
	Proto            uint8
}

// Matches reports whether the packet arriving on inPort satisfies the
// match.
func (m Match) Matches(pkt *Packet, inPort int) bool {
	if m.InPort != 0 && m.InPort != inPort {
		return false
	}
	if m.Src.IsValid() && m.Src != pkt.Flow.Src {
		return false
	}
	if m.Dst.IsValid() && m.Dst != pkt.Flow.Dst {
		return false
	}
	if m.SrcPort != 0 && m.SrcPort != pkt.Flow.SrcPort {
		return false
	}
	if m.DstPort != 0 && m.DstPort != pkt.Flow.DstPort {
		return false
	}
	if m.Proto != 0 && m.Proto != pkt.Flow.Proto {
		return false
	}
	return true
}

// ActionKind enumerates what a matching rule does with a packet. The
// values are the Flow-MOD wire encoding; 3 and 4 are unassigned.
type ActionKind int

// Rule actions.
const (
	// ActionDrop discards the packet.
	ActionDrop ActionKind = 0
	// ActionOutput forwards out Ports[0].
	ActionOutput ActionKind = 1
	// ActionSplit round-robins packets across Ports — the paper's
	// load-balancing Flow-MOD splits traffic across two ports.
	ActionSplit ActionKind = 2
	// ActionHashSplit spreads flows across Ports by five-tuple hash
	// (ECMP): every packet of one flow takes the same path, avoiding
	// the reordering that round-robin ActionSplit can cause.
	ActionHashSplit ActionKind = 5
)

// Valid reports whether k is a defined action kind. The wire codecs
// reject anything else, so a flipped byte cannot install a rule whose
// action silently falls through to drop.
func (k ActionKind) Valid() bool {
	return k == ActionDrop || k == ActionOutput || k == ActionSplit || k == ActionHashSplit
}

// String names the action kind.
func (k ActionKind) String() string {
	switch k {
	case ActionDrop:
		return "drop"
	case ActionOutput:
		return "output"
	case ActionSplit:
		return "split"
	case ActionHashSplit:
		return "hash-split"
	default:
		return "unknown"
	}
}

// Action is what a rule does with matching packets.
type Action struct {
	Kind  ActionKind
	Ports []int // for Output (first entry) and Split (all entries)
}

// Output returns a forward-to-port action.
func Output(port int) Action { return Action{Kind: ActionOutput, Ports: []int{port}} }

// Split returns a round-robin action over the given ports.
func Split(ports ...int) Action { return Action{Kind: ActionSplit, Ports: ports} }

// HashSplit returns an ECMP action over the given ports.
func HashSplit(ports ...int) Action { return Action{Kind: ActionHashSplit, Ports: ports} }

// Drop returns a drop action.
func Drop() Action { return Action{Kind: ActionDrop} }

// Rule is one prioritised flow-table entry.
type Rule struct {
	// Priority orders rules; higher wins. Equal priorities fall back
	// to installation order (earlier wins).
	Priority int
	// Match selects packets.
	Match Match
	// Action is applied to matching packets.
	Action Action
	// IdleTimeout evicts the rule after this many seconds without a
	// hit (0 = never). OpenFlow semantics: a knocked-open port closes
	// itself again when the authorised flow goes quiet.
	IdleTimeout float64
	// HardTimeout evicts the rule this many seconds after
	// installation regardless of traffic (0 = never).
	HardTimeout float64

	sw          *Switch // the table holding the rule
	seq         uint64  // installation order
	rrNext      int     // round-robin cursor for ActionSplit
	installedAt float64
	lastHitAt   float64
	evicted     bool
	// Packets counts rule hits (like OpenFlow cookie counters).
	Packets uint64
	// Bytes counts rule-hit bytes.
	Bytes uint64
}

// Switch is a store-and-forward switch with a prioritised match-action
// flow table. It models both the paper's physical Zodiac FX and its
// Mininet virtual switches. Its control plane is rule installation
// only: InstallRule is what a Flow-MOD does, and rules leave the table
// only by timing out. Table misses are dropped.
type Switch struct {
	// Name is the unique switch name.
	Name string

	// Tap, when set, observes every packet the switch receives
	// before table lookup. The MDN applications hang their
	// tone-emitting logic here (e.g. "play a sound whose frequency
	// is based on the destination port", Section 5).
	Tap func(pkt *Packet, inPort int)

	sim     *Sim
	ports   []*Port // indexed by port number; nil where unconnected
	table   []*Rule
	free    []*Rule // evicted rule records, reused by InstallRule
	ruleSeq uint64

	// Counters.
	RxPackets   uint64
	TxPackets   uint64
	TableMisses uint64
	LoopDrops   uint64
}

// NewSwitch creates an empty switch registered on the simulator.
func NewSwitch(sim *Sim, name string) *Switch {
	return &Switch{Name: name, sim: sim}
}

func (s *Switch) attachPort(p *Port) {
	if p.Index < 1 || s.Port(p.Index) != nil {
		panic(fmt.Sprintf("netsim: switch %s port %d already connected or below 1", s.Name, p.Index))
	}
	if grow := p.Index + 1 - len(s.ports); grow > 0 {
		s.ports = append(s.ports, make([]*Port, grow)...)
	}
	s.ports[p.Index] = p
}

// Port returns the port with the given number, or nil.
func (s *Switch) Port(n int) *Port {
	if n < 0 || n >= len(s.ports) {
		return nil
	}
	return s.ports[n]
}

// Ports returns the connected port numbers in ascending order.
func (s *Switch) Ports() []int {
	out := make([]int, 0, len(s.ports))
	for n, p := range s.ports {
		if p != nil {
			out = append(out, n)
		}
	}
	return out
}

// InstallRule adds a rule to the flow table, returning the installed
// rule (so callers can read its counters later). This is the
// switch-side effect of an OpenFlow Flow-MOD. Timeouts (if any) are
// enforced against the simulator clock.
//
// The switch owns the installed record: it copies r.Action.Ports, so
// the caller may reuse its slice, and it reuses the records of evicted
// rules. The returned pointer is valid until the rule is evicted;
// after that the record may hold a later rule.
func (s *Switch) InstallRule(r Rule) *Rule {
	s.ruleSeq++
	rp := s.ruleRecord()
	ports := rp.Action.Ports[:0]
	*rp = r
	rp.Action.Ports = append(ports, r.Action.Ports...)
	rp.sw = s
	rp.seq = s.ruleSeq
	rp.installedAt = s.sim.Now()
	rp.lastHitAt = rp.installedAt
	// The table is ordered by priority, highest first, then by seq. The
	// new rule has the largest seq, so it goes after every rule whose
	// priority is at least its own.
	lo, hi := 0, len(s.table)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); s.table[mid].Priority >= r.Priority {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.table = append(s.table, nil)
	copy(s.table[lo+1:], s.table[lo:])
	s.table[lo] = rp
	s.scheduleEviction(rp)
	return rp
}

// ruleRecord takes an evicted rule's record off the free list, or
// makes one.
func (s *Switch) ruleRecord() *Rule {
	if n := len(s.free); n > 0 {
		r := s.free[n-1]
		s.free = s.free[:n-1]
		return r
	}
	return new(Rule)
}

// scheduleEviction arms the rule's next timeout check as a typed
// event, so arming allocates nothing.
func (s *Switch) scheduleEviction(r *Rule) {
	if r.IdleTimeout <= 0 && r.HardTimeout <= 0 {
		return
	}
	next := math.Inf(1)
	if r.HardTimeout > 0 {
		next = r.installedAt + r.HardTimeout
	}
	if r.IdleTimeout > 0 {
		if idle := r.lastHitAt + r.IdleTimeout; idle < next {
			next = idle
		}
	}
	s.sim.schedule(next, event{rule: r})
}

// expire is the rule's timeout check: it evicts a rule whose hard or
// idle timeout is due, and re-arms one whose idle clock traffic
// refreshed.
func (s *Switch) expire(r *Rule) {
	if r.evicted {
		return
	}
	now := s.sim.Now()
	hardDue := r.HardTimeout > 0 && now >= r.installedAt+r.HardTimeout-1e-12
	idleDue := r.IdleTimeout > 0 && now >= r.lastHitAt+r.IdleTimeout-1e-12
	if hardDue || idleDue {
		r.evicted = true
		s.removeRules(func(x *Rule) bool { return x == r })
		// This event held the simulator's last reference to the record.
		s.free = append(s.free, r)
		return
	}
	// Traffic refreshed the idle clock: re-arm.
	s.scheduleEviction(r)
}

// removeRules deletes every rule matching the predicate and returns
// how many were removed. Removed rules are marked evicted so any
// pending timeout check terminates instead of re-arming forever on a
// rule that is no longer in the table.
func (s *Switch) removeRules(pred func(*Rule) bool) int {
	kept := s.table[:0]
	removed := 0
	for _, r := range s.table {
		if pred(r) {
			r.evicted = true
			removed++
		} else {
			kept = append(kept, r)
		}
	}
	// Clear the vacated tail so the backing array does not keep
	// removed rules reachable.
	clear(s.table[len(kept):])
	s.table = kept
	return removed
}

// Rules returns the current table, highest priority first.
func (s *Switch) Rules() []*Rule {
	out := make([]*Rule, len(s.table))
	copy(out, s.table)
	return out
}

// Lookup returns the highest-priority rule matching the packet, or
// nil on a miss.
func (s *Switch) Lookup(pkt *Packet, inPort int) *Rule {
	for _, r := range s.table {
		if r.Match.Matches(pkt, inPort) {
			return r
		}
	}
	return nil
}

// Receive implements Node: table lookup and action execution.
func (s *Switch) Receive(pkt *Packet, inPort int) {
	s.RxPackets++
	pkt.Hops++
	if pkt.Hops > MaxHops {
		s.LoopDrops++
		s.sim.releasePacket(pkt)
		return
	}
	if s.Tap != nil {
		s.Tap(pkt, inPort)
	}
	rule := s.Lookup(pkt, inPort)
	if rule == nil {
		s.TableMisses++
		s.sim.releasePacket(pkt)
		return
	}
	rule.Packets++
	rule.Bytes += uint64(pkt.Size)
	rule.lastHitAt = s.sim.Now()
	switch rule.Action.Kind {
	case ActionDrop:
		s.sim.releasePacket(pkt)
	case ActionOutput:
		if len(rule.Action.Ports) > 0 {
			s.sendOut(rule.Action.Ports[0], pkt)
		} else {
			s.sim.releasePacket(pkt)
		}
	case ActionSplit:
		if n := len(rule.Action.Ports); n > 0 {
			port := rule.Action.Ports[rule.rrNext%n]
			rule.rrNext++
			s.sendOut(port, pkt)
		} else {
			s.sim.releasePacket(pkt)
		}
	case ActionHashSplit:
		if n := len(rule.Action.Ports); n > 0 {
			port := rule.Action.Ports[pkt.Flow.Hash()%uint64(n)]
			s.sendOut(port, pkt)
		} else {
			s.sim.releasePacket(pkt)
		}
	}
}

// sendOut forwards pkt out the given port; a rule naming an
// unconnected port drops the packet.
func (s *Switch) sendOut(portNo int, pkt *Packet) {
	p := s.Port(portNo)
	if p == nil {
		s.sim.releasePacket(pkt)
		return
	}
	s.TxPackets++
	p.Send(pkt)
}

// QueueLen returns the output-queue occupancy of the given port (0
// for unknown ports) — the quantity the paper polls with tc every
// 300 ms.
func (s *Switch) QueueLen(portNo int) int {
	p := s.Port(portNo)
	if p == nil {
		return 0
	}
	return p.Out.Len()
}
