package main

import (
	"syscall"
	"time"
)

// cpuNow returns the CPU time the whole process (every thread: the
// simulation, fleet workers, the garbage collector) has used so far.
// Unlike wall time it does not grow while the host runs someone else,
// which makes it the steady measure of cost on a shared machine.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
