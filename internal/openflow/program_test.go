package openflow

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"mdn/internal/netsim"
)

func programmerFixture(t *testing.T, faults *netsim.Faults) (*netsim.Sim, *netsim.Switch, *Programmer) {
	t.Helper()
	sim := netsim.NewSim()
	sw := netsim.NewSwitch(sim, "s1")
	ch := NewChannel(sim, sw, 0.005)
	if faults != nil {
		ch.InjectFaults(*faults)
	}
	return sim, sw, NewProgrammer(ch, 42)
}

func addRule(priority int32) FlowMod {
	return FlowMod{Command: FlowAdd, Priority: priority, Action: netsim.Drop()}
}

func TestProgrammerInstallsFirstTry(t *testing.T) {
	sim, sw, p := programmerFixture(t, nil)
	var result error = errors.New("not called")
	p.OnResult = func(m FlowMod, err error) { result = err }
	if err := p.Install(addRule(5)); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	if result != nil {
		t.Errorf("OnResult err = %v, want nil", result)
	}
	if len(sw.Rules()) != 1 {
		t.Errorf("switch has %d rules, want 1", len(sw.Rules()))
	}
	if p.Attempts != 1 || p.Retries != 0 || p.Installs != 1 || p.pending != 0 {
		t.Errorf("counters attempts=%d retries=%d installs=%d pending=%d",
			p.Attempts, p.Retries, p.Installs, p.pending)
	}
}

func TestProgrammerSuppressesDuplicateInstall(t *testing.T) {
	sim, sw, p := programmerFixture(t, nil)
	rule := addRule(5)
	if err := p.Install(rule); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	// Same wire bytes again: idempotency key suppresses the send.
	if err := p.Install(rule); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	if p.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", p.Duplicates)
	}
	if len(sw.Rules()) != 1 {
		t.Errorf("switch has %d rules after duplicate install, want 1", len(sw.Rules()))
	}
	if p.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 (duplicate never hit the wire)", p.Attempts)
	}
}

func TestProgrammerForgetAllowsDeliberateReinstall(t *testing.T) {
	sim, sw, p := programmerFixture(t, nil)
	rule := addRule(5)
	if err := p.Install(rule); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	p.Forget(rule)
	if err := p.Install(rule); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	if p.Duplicates != 0 || p.Installs != 2 {
		t.Errorf("duplicates=%d installs=%d, want 0/2 after Forget", p.Duplicates, p.Installs)
	}
	if len(sw.Rules()) != 2 {
		t.Errorf("switch has %d rules, want 2", len(sw.Rules()))
	}
}

func TestProgrammerExhaustsRetriesOnDeadWire(t *testing.T) {
	faults := netsim.Faults{DropProb: 1.0, Seed: 7}
	sim, sw, p := programmerFixture(t, &faults)
	var result error
	calls := 0
	p.OnResult = func(m FlowMod, err error) { result = err; calls++ }
	if err := p.Install(addRule(5)); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	if calls != 1 {
		t.Fatalf("OnResult called %d times, want 1", calls)
	}
	if !errors.Is(result, ErrRetriesExhausted) {
		t.Errorf("terminal error = %v, want ErrRetriesExhausted", result)
	}
	if p.Attempts != maxAttempts || p.Retries != maxAttempts-1 {
		t.Errorf("attempts=%d retries=%d, want %d/%d",
			p.Attempts, p.Retries, maxAttempts, maxAttempts-1)
	}
	if p.Failures != 1 || p.pending != 0 {
		t.Errorf("failures=%d pending=%d, want 1/0", p.Failures, p.pending)
	}
	if len(sw.Rules()) != 0 {
		t.Errorf("dead wire installed %d rules", len(sw.Rules()))
	}
}

// TestProgrammerRecoversOverLossyWire: over a 60 % lossy wire a rule
// is re-sent until a copy survives. A twin injector with the wire's
// faults replays its drop decisions, so each seed's outcome is
// predicted: k drops before the first survivor cost k retries, and the
// rule lands exactly once if k < maxAttempts. Some of the 20 seeds
// must land a rule after a retry, which a programmer that never
// retries cannot.
func TestProgrammerRecoversOverLossyWire(t *testing.T) {
	recovered := 0
	for seed := int64(0); seed < 20; seed++ {
		faults := netsim.Faults{DropProb: 0.6, Seed: seed}
		sim, sw, p := programmerFixture(t, &faults)
		var result error = errors.New("not called")
		p.OnResult = func(m FlowMod, err error) { result = err }
		if err := p.Install(addRule(5)); err != nil {
			t.Fatal(err)
		}
		sim.Run()

		twin := netsim.NewFaultInjector(faults)
		drops := uint64(0)
		for _, ok := twin.Mangle(nil); !ok && drops < maxAttempts; _, ok = twin.Mangle(nil) {
			drops++
		}
		if drops >= maxAttempts {
			if !errors.Is(result, ErrRetriesExhausted) || p.Attempts != maxAttempts || len(sw.Rules()) != 0 {
				t.Errorf("seed %d: %d drops: err %v, %d attempts, %d rules; want exhausted after %d",
					seed, drops, result, p.Attempts, len(sw.Rules()), maxAttempts)
			}
			continue
		}
		if result != nil || p.Retries != drops || p.Attempts != drops+1 || len(sw.Rules()) != 1 {
			t.Errorf("seed %d: %d drops: err %v, %d retries of %d attempts, %d rules; want nil, %d of %d, 1",
				seed, drops, result, p.Retries, p.Attempts, len(sw.Rules()), drops, drops+1)
		}
		if drops > 0 && len(sw.Rules()) == 1 {
			recovered++
		}
	}
	if recovered == 0 {
		t.Error("no seed landed its rule after a lost send")
	}
}

// TestNewProgrammerAllocs: a programmer is its struct and its
// idempotency map; the retry stream lives inside the struct.
func TestNewProgrammerAllocs(t *testing.T) {
	_, _, p := programmerFixture(t, nil)
	ch := p.Channel()
	allocs := testing.AllocsPerRun(100, func() { p = NewProgrammer(ch, 7) })
	if allocs > 2 {
		t.Errorf("NewProgrammer allocates %v times, want <= 2", allocs)
	}
}

func TestProgrammerRejectsInvalidRuleSynchronously(t *testing.T) {
	_, _, p := programmerFixture(t, nil)
	onResultCalled := false
	p.OnResult = func(FlowMod, error) { onResultCalled = true }
	err := p.Install(FlowMod{Command: 99, Priority: 1, Action: netsim.Drop()})
	if err == nil {
		t.Fatal("invalid rule accepted")
	}
	if !errors.Is(err, ErrBadMessage) {
		t.Errorf("err = %v, want ErrBadMessage in the chain", err)
	}
	if onResultCalled {
		t.Error("OnResult fired for a synchronous validation failure")
	}
	if p.Attempts != 0 || p.pending != 0 {
		t.Errorf("attempts=%d pending=%d after rejected install, want 0/0", p.Attempts, p.pending)
	}
}

func TestProgrammerBackoffIsBoundedAndJittered(t *testing.T) {
	_, _, p := programmerFixture(t, nil)
	const lo, hi = baseBackoff * (1 - jitterFrac/2), maxBackoff * (1 + jitterFrac/2)
	prev := 0.0
	for try := 0; try < 20; try++ {
		d := p.backoff(try)
		if d < lo || d > hi {
			t.Errorf("backoff(%d) = %g outside [%g, %g]", try, d, lo, hi)
		}
		if try >= 10 && d == prev {
			t.Errorf("backoff(%d) = backoff(%d) = %g exactly; jitter missing", try, try-1, d)
		}
		prev = d
	}
}

// TestProgrammerSteadyStateAllocs: once the pools are warm, a full
// Install → deliver → apply → hard-timeout eviction → Forget cycle
// allocates nothing, and neither does a duplicate Install or a Forget.
func TestProgrammerSteadyStateAllocs(t *testing.T) {
	sim, sw, p := programmerFixture(t, nil)
	rule := FlowMod{Command: FlowAdd, Priority: 100, HardTimeout: 1,
		Match: netsim.Match{DstPort: 7100, SrcPort: 3}, Action: netsim.Output(1)}
	p.OnResult = func(m FlowMod, err error) {
		if err != nil {
			t.Fatal(err)
		}
		p.Forget(m)
	}
	cycle := func() {
		if err := p.Install(rule); err != nil {
			t.Fatal(err)
		}
		sim.Run()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("install cycle allocates %v times, want 0", allocs)
	}
	if len(sw.Rules()) != 0 || p.Installs != 102 || p.pending != 0 {
		t.Errorf("rules=%d installs=%d pending=%d, want 0/102/0", len(sw.Rules()), p.Installs, p.pending)
	}

	p.OnResult = nil
	cycle()
	if allocs := testing.AllocsPerRun(100, func() {
		if err := p.Install(rule); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("duplicate Install allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.Forget(rule) }); allocs != 0 {
		t.Errorf("Forget allocates %v times, want 0", allocs)
	}
}

// TestProgrammerKeysRulesByWireBytes: a second Install is suppressed as
// a duplicate exactly when its wire bytes equal an installed rule's.
// The draws come from a small domain so equal rules are common, and
// the timeouts include -0 and +0, which compare equal as floats but
// differ on the wire.
func TestProgrammerKeysRulesByWireBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	timeouts := []float64{0, math.Copysign(0, -1), 0.5}
	actions := []netsim.Action{netsim.Drop(), netsim.Output(1), netsim.Output(2), netsim.Split(1, 2), netsim.HashSplit(1, 2)}
	draw := func() FlowMod {
		return FlowMod{Command: FlowAdd, Priority: int32(rng.Intn(2)),
			Match:       netsim.Match{DstPort: uint16(rng.Intn(2))},
			Action:      actions[rng.Intn(len(actions))],
			IdleTimeout: timeouts[rng.Intn(len(timeouts))],
			HardTimeout: timeouts[rng.Intn(len(timeouts))]}
	}
	sim, _, p := programmerFixture(t, nil)
	var installed [][]byte
	for i := 0; i < 2000; i++ {
		m := draw()
		wire := must(MarshalFlowMod(m))
		if rng.Intn(4) == 0 {
			p.Forget(m)
			kept := installed[:0]
			for _, w := range installed {
				if !bytes.Equal(w, wire) {
					kept = append(kept, w)
				}
			}
			installed = kept
			continue
		}
		want := false
		for _, w := range installed {
			want = want || bytes.Equal(w, wire)
		}
		dups := p.Duplicates
		if err := p.Install(m); err != nil {
			t.Fatal(err)
		}
		sim.Run()
		if got := p.Duplicates > dups; got != want {
			t.Fatalf("draw %d: %+v suppressed=%v, want %v", i, m, got, want)
		}
		if !want {
			installed = append(installed, wire)
		}
	}

	neg := FlowMod{Command: FlowAdd, HardTimeout: math.Copysign(0, -1), Action: netsim.Drop()}
	pos := neg
	pos.HardTimeout = 0
	p.Forget(neg)
	p.Forget(pos)
	installs := p.Installs
	if err := p.Install(neg); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if err := p.Install(pos); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if p.Installs-installs != 2 {
		t.Errorf("hard timeouts -0 and +0 installed %d rules, want 2: the wire tells them apart", p.Installs-installs)
	}
}
