package core

// historyMax bounds application history logs (sweeps, rate logs,
// per-interval samples, alert lists). Long-running deployments
// must not grow without limit; like ErrorLog, histories keep the last
// N entries and count evictions, and the dropped counters surface
// through each application's Instrument method.
//
// The bound is generous enough that every experiment and scenario
// in this repo (tens of simulated seconds) sees no eviction at all.
const historyMax = 4096

// appendBounded appends v to s keeping at most max entries, evicting
// oldest-first and counting evictions in dropped.
func appendBounded[T any](s []T, v T, max int, dropped *uint64) []T {
	s = append(s, v)
	if n := len(s) - max; n > 0 {
		*dropped += uint64(n)
		s = append(s[:0], s[n:]...)
	}
	return s
}
