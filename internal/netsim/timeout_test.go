package netsim

import "testing"

func TestRuleHardTimeout(t *testing.T) {
	sim, h1, s, h2, _ := star(t, false)
	rule := s.InstallRule(Rule{
		Priority: 1, Match: Match{Dst: h2.Addr}, Action: Output(2),
		HardTimeout: 2,
	})
	// Traffic before and after the timeout.
	StartCBR(sim, h1, tuple(1, 80), 10, 100, 0, 4)
	sim.RunUntil(5)
	if !rule.evicted {
		t.Fatal("hard timeout did not evict")
	}
	if len(s.Rules()) != 0 {
		t.Error("rule still in table")
	}
	// ~20 packets before eviction delivered, the rest dropped.
	if h2.RxPackets < 18 || h2.RxPackets > 22 {
		t.Errorf("delivered = %d, want ~20 (traffic does not extend a hard timeout)", h2.RxPackets)
	}
}

func TestRuleIdleTimeoutRefreshedByTraffic(t *testing.T) {
	sim, h1, s, h2, _ := star(t, false)
	rule := s.InstallRule(Rule{
		Priority: 1, Match: Match{Dst: h2.Addr}, Action: Output(2),
		IdleTimeout: 1,
	})
	// Steady traffic at 2 pps keeps the rule alive well past 1 s.
	StartCBR(sim, h1, tuple(1, 80), 2, 100, 0, 5)
	sim.RunUntil(5.5)
	if rule.evicted {
		t.Fatal("active rule evicted despite traffic")
	}
	// After the flow stops, the rule idles out.
	sim.RunUntil(8)
	if !rule.evicted {
		t.Fatal("idle rule not evicted")
	}
	if h2.RxPackets != 10 {
		t.Errorf("delivered = %d, want all 10", h2.RxPackets)
	}
}

func TestRuleIdleTimeoutWithoutTraffic(t *testing.T) {
	sim, _, s, h2, _ := star(t, false)
	rule := s.InstallRule(Rule{
		Priority: 1, Match: Match{Dst: h2.Addr}, Action: Output(2),
		IdleTimeout: 0.5,
	})
	sim.RunUntil(1)
	if !rule.evicted || len(s.Rules()) != 0 {
		t.Error("untouched rule should idle out at 0.5 s")
	}
}

func TestRuleNoTimeoutsPersist(t *testing.T) {
	sim, _, s, h2, _ := star(t, false)
	rule := s.InstallRule(Rule{Priority: 1, Match: Match{Dst: h2.Addr}, Action: Output(2)})
	sim.RunUntil(100)
	if rule.evicted || len(s.Rules()) != 1 {
		t.Error("rule without timeouts must persist")
	}
	if len(sim.events) != 0 {
		t.Errorf("timeout machinery leaked %d events", len(sim.events))
	}
}

func TestRuleBothTimeoutsHardWins(t *testing.T) {
	sim, h1, s, h2, _ := star(t, false)
	rule := s.InstallRule(Rule{
		Priority: 1, Match: Match{Dst: h2.Addr}, Action: Output(2),
		IdleTimeout: 1, HardTimeout: 3,
	})
	// Continuous traffic defeats the idle timeout, but the hard
	// timeout still fires at t=3.
	StartCBR(sim, h1, tuple(1, 80), 5, 100, 0, 10)
	sim.RunUntil(3.5)
	if !rule.evicted {
		t.Error("hard timeout should win over refreshed idle timeout")
	}
}

func TestManualRemoveBeforeTimeoutIsSafe(t *testing.T) {
	sim, _, s, h2, _ := star(t, false)
	s.InstallRule(Rule{
		Priority: 1, Match: Match{Dst: h2.Addr}, Action: Output(2),
		HardTimeout: 2,
	})
	s.removeRules(func(*Rule) bool { return true })
	sim.RunUntil(5) // the armed eviction event must not panic or re-add
	if len(s.Rules()) != 0 {
		t.Error("table should stay empty")
	}
}

// Regression: removeRules used to leave removed idle-timeout rules
// un-evicted, so each scheduleEviction closure re-armed forever and
// the event heap grew without bound in long runs.
func TestRemoveRulesStopsEvictionTimerChain(t *testing.T) {
	sim, _, s, h2, _ := star(t, false)
	r := s.InstallRule(Rule{
		Priority: 1, Match: Match{Dst: h2.Addr}, Action: Output(2),
		IdleTimeout: 1,
	})
	s.removeRules(func(x *Rule) bool { return x == r })
	if !r.evicted {
		t.Fatal("removed rule not marked evicted")
	}
	// The one armed check fires at t=1 and must terminate the chain:
	// no events may remain, however far the clock advances.
	sim.RunUntil(1000)
	if n := len(sim.events); n != 0 {
		t.Errorf("%d eviction events still pending after removal", n)
	}
}

func TestFaultInjectorDeterministicAndBounded(t *testing.T) {
	mangle := func(seed int64) ([]int, uint64, uint64, uint64) {
		inj := NewFaultInjector(Faults{DropProb: 0.2, FlipProb: 0.4, TruncProb: 0.3, Seed: seed})
		var lens []int
		for i := 0; i < 200; i++ {
			msg := make([]byte, 40)
			out, ok := inj.Mangle(msg)
			if !ok {
				lens = append(lens, -1)
				continue
			}
			if len(out) > len(msg) {
				t.Fatalf("mangle grew the message: %d > %d", len(out), len(msg))
			}
			for _, b := range msg {
				if b != 0 {
					t.Fatal("mangle modified the caller's buffer")
				}
			}
			lens = append(lens, len(out))
		}
		return lens, inj.Dropped, inj.Flipped, inj.Truncated
	}
	l1, d1, f1, t1 := mangle(5)
	l2, d2, f2, t2 := mangle(5)
	if d1 != d2 || f1 != f2 || t1 != t2 {
		t.Errorf("same seed diverged: %d/%d/%d vs %d/%d/%d", d1, f1, t1, d2, f2, t2)
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("mangle %d: len %d vs %d", i, l1[i], l2[i])
		}
	}
	if d1 == 0 || f1 == 0 || t1 == 0 {
		t.Errorf("faults not exercised: %d/%d/%d", d1, f1, t1)
	}
}

func TestNilFaultInjectorPassesThrough(t *testing.T) {
	var inj *FaultInjector
	msg := []byte{1, 2, 3}
	out, ok := inj.Mangle(msg)
	if !ok || &out[0] != &msg[0] {
		t.Error("nil injector must pass the message through untouched")
	}
	if inj.Jitter() != 0 {
		t.Error("nil injector must add no jitter")
	}
}
