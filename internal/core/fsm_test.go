package core

import "testing"

func TestSequenceFSMAccepts(t *testing.T) {
	f := SequenceFSM([]string{"a", "b", "c"})
	accepted := 0
	f.OnAccept = func() { accepted++ }
	f.Step("a")
	f.Step("b")
	f.Step("c")
	if accepted != 1 || f.Accepts != 1 {
		t.Errorf("accepted = %d", accepted)
	}
	if f.State() != "q0" {
		t.Errorf("state after accept = %q, want reset to q0", f.State())
	}
}

func TestSequenceFSMWrongSymbolResets(t *testing.T) {
	f := SequenceFSM([]string{"a", "b", "c"})
	var resets []string
	f.OnReset = func(state, sym string) { resets = append(resets, state+"/"+sym) }
	f.Step("a")
	f.Step("c") // wrong
	if f.State() != "q0" {
		t.Errorf("state = %q, want q0", f.State())
	}
	if len(resets) != 1 || resets[0] != "q1/c" {
		t.Errorf("resets = %v", resets)
	}
	// Full correct sequence still works afterwards.
	f.Step("a")
	f.Step("b")
	f.Step("c")
	if f.Accepts != 1 {
		t.Errorf("accepts = %d", f.Accepts)
	}
}

func TestFSMWrongSymbolCanRestartSequence(t *testing.T) {
	// After "a", another "a" resets but counts as the first symbol
	// of a fresh attempt (knockd behaviour).
	f := SequenceFSM([]string{"a", "b"})
	f.Step("a")
	f.Step("a") // reset, then re-dispatch: back in q1
	if f.State() != "q1" {
		t.Errorf("state = %q, want q1", f.State())
	}
	f.Step("b")
	if f.Accepts != 1 {
		t.Errorf("accepts = %d", f.Accepts)
	}
}

func TestFSMRepeatedAccepts(t *testing.T) {
	f := SequenceFSM([]string{"k"})
	for i := 0; i < 3; i++ {
		f.Step("k")
	}
	if f.Accepts != 3 {
		t.Errorf("accepts = %d", f.Accepts)
	}
}

func TestFSMManualConstruction(t *testing.T) {
	// A two-state toggle with an accept on "done".
	f := NewFSM("idle", "done")
	f.AddTransition("idle", "go", "busy")
	f.AddTransition("busy", "finish", "done")
	f.AddTransition("busy", "pause", "idle")
	f.Step("go")
	f.Step("pause")
	if f.State() != "idle" {
		t.Errorf("state = %q", f.State())
	}
	f.Step("go")
	f.Step("finish")
	if f.Accepts != 1 {
		t.Error("manual FSM should accept")
	}
}

func TestFSMResetAndSequencePanics(t *testing.T) {
	f := SequenceFSM([]string{"a", "b"})
	f.Step("a")
	f.Step("x") // a wrong symbol resets to the start state
	if f.State() != "q0" {
		t.Error("Reset failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty sequence")
		}
	}()
	SequenceFSM(nil)
}
