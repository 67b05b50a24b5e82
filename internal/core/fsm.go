package core

import "fmt"

// FSM is a deterministic finite state machine over string symbols —
// the paper's Section 4 observes that sounds "if played in the right
// sequence, can be used ... to implement any finite state machine for
// network state processing". The port-knocking application is one
// instance; the type is exported so users can build others.
type FSM struct {
	// Start is the initial state.
	Start string
	// Accept is the accepting state; reaching it fires OnAccept and
	// resets the machine.
	Accept string
	// OnAccept runs when the machine reaches Accept.
	OnAccept func()
	// OnReset runs whenever an unexpected symbol resets the machine
	// to Start (not on accept): a wrong knock restarts
	// authentication.
	OnReset func(state, symbol string)

	transitions map[string]map[string]string
	state       string

	// Accepts counts completed runs.
	Accepts uint64
	// Resets counts wrong-symbol resets.
	Resets uint64
}

// NewFSM creates a machine in the start state.
func NewFSM(start, accept string) *FSM {
	return &FSM{
		Start:       start,
		Accept:      accept,
		transitions: make(map[string]map[string]string),
		state:       start,
	}
}

// AddTransition wires state --symbol--> next.
func (f *FSM) AddTransition(state, symbol, next string) {
	m := f.transitions[state]
	if m == nil {
		m = make(map[string]string)
		f.transitions[state] = m
	}
	m[symbol] = next
}

// State returns the current state.
func (f *FSM) State() string { return f.state }

// Step consumes one symbol and returns the new state.
func (f *FSM) Step(symbol string) string {
	next, ok := f.transitions[f.state][symbol]
	if !ok {
		f.Resets++
		if f.OnReset != nil {
			f.OnReset(f.state, symbol)
		}
		f.state = f.Start
		// The wrong symbol may itself be the first symbol of a valid
		// sequence — re-dispatch once from the start state, like real
		// port-knocking daemons do.
		if n2, ok2 := f.transitions[f.state][symbol]; ok2 {
			f.state = n2
		}
		return f.state
	}
	f.state = next
	if f.state == f.Accept {
		f.Accepts++
		if f.OnAccept != nil {
			f.OnAccept()
		}
		f.state = f.Start
	}
	return f.state
}

// SequenceFSM builds the linear machine that accepts exactly the
// given symbol sequence — the shape port knocking needs.
//
// Constructor invariant (documented panic): an empty sequence is a
// configuration bug and panics at construction time.
func SequenceFSM(symbols []string) *FSM {
	if len(symbols) == 0 {
		panic("core: SequenceFSM requires at least one symbol")
	}
	f := NewFSM("q0", fmt.Sprintf("q%d", len(symbols)))
	for i, s := range symbols {
		f.AddTransition(fmt.Sprintf("q%d", i), s, fmt.Sprintf("q%d", i+1))
	}
	return f
}
