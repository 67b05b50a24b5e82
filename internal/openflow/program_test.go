package openflow

import (
	"errors"
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

func TestProgrammerRecoversOverLossyWire(t *testing.T) {
	// 60% drop: with 8 attempts the install is overwhelmingly likely;
	// the seed pins the outcome (this one loses the first few sends,
	// then delivers).
	faults := netsim.Faults{DropProb: 0.6, Seed: 4}
	sim, sw, p := programmerFixture(t, &faults)
	var result error = errors.New("not called")
	p.OnResult = func(m FlowMod, err error) { result = err }
	if err := p.Install(addRule(5)); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	if result != nil {
		t.Fatalf("OnResult err = %v, want eventual success", result)
	}
	if p.Retries == 0 {
		t.Error("expected at least one retry over a 60% lossy wire")
	}
	if len(sw.Rules()) != 1 {
		t.Errorf("switch has %d rules, want exactly 1 (no double install)", len(sw.Rules()))
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
