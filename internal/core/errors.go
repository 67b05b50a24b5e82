package core

import (
	"errors"
	"sync"
)

// Typed error taxonomy for the controller runtime, mirroring the wire
// layer's ErrTooLarge/ErrBadMessage: callers branch on the class with
// errors.Is and read the detail from the wrapped message. Applications
// never panic on these — they are recorded (see ErrorLog) and surfaced
// through the controller's Health snapshot.
var (
	// ErrHandlerPanic reports a subscriber that panicked inside its
	// window or detection handler; the panic was recovered and the
	// other subscribers kept running.
	ErrHandlerPanic = errors.New("core: subscriber panicked")
	// ErrQuarantined reports a subscriber disabled by the circuit
	// breaker after too many consecutive panics.
	ErrQuarantined = errors.New("core: subscriber quarantined")
	// ErrFlowProgram reports a flow-programming operation that failed
	// terminally (validation failure, or retries exhausted over a
	// lossy control channel).
	ErrFlowProgram = errors.New("core: flow programming failed")
)

// AppError is one recorded application-level failure.
type AppError struct {
	// Time is the virtual time of the failure.
	Time float64
	// App names the failing application or subscriber.
	App string
	// Err is the typed error (wraps one of the taxonomy roots).
	Err error
}

// ErrorLog accumulates typed application errors with a bounded
// history. The controller owns one; applications share it so per-app
// failures feed the health state machine. A nil *ErrorLog is valid
// and records nothing, so error paths need no nil checks.
//
// The log is safe for concurrent use.
type ErrorLog struct {
	mu      sync.Mutex
	errs    []AppError
	evicted uint64
}

// errorLogMax bounds an ErrorLog's retained history; older entries are
// evicted (counters keep counting).
const errorLogMax = 256

// NewErrorLog returns an empty log.
func NewErrorLog() *ErrorLog { return &ErrorLog{} }

// Record appends one failure.
func (l *ErrorLog) Record(time float64, app string, err error) {
	if l == nil || err == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.errs = appendBounded(l.errs, AppError{Time: time, App: app, Err: err}, errorLogMax, &l.evicted)
}

// Total returns how many errors were ever recorded (including evicted
// ones).
func (l *ErrorLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evicted + uint64(len(l.errs))
}

// Since counts retained errors recorded at or after time t — the
// "recent error rate" input of the health state machine.
func (l *ErrorLog) Since(t float64) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for i := len(l.errs) - 1; i >= 0; i-- {
		if l.errs[i].Time < t {
			break
		}
		n++
	}
	return n
}
