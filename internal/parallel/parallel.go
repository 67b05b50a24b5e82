// Package parallel is the repo's minimal fan-out primitive: a
// bounded worker pool over an index space. It exists so the sweep and
// fleet layers share one carefully-reviewed concurrency shape instead
// of re-growing ad-hoc goroutine plumbing per call site.
//
// The contract is deliberately narrow: ForEach guarantees every index
// is visited exactly once and that all work has completed (with a
// happens-before edge) when it returns. It says nothing about order —
// callers that need deterministic output write results[i] and keep
// ordering decisions out of the concurrent section entirely. That is
// what lets the sweep runner produce byte-identical reports at any
// worker count.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested pool size: values <= 0 mean
// runtime.GOMAXPROCS(0), anything else is returned unchanged.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach calls fn(i) exactly once for every i in [0, n), fanning the
// calls across min(Workers(workers), n) goroutines. With an effective
// pool size of one it degenerates to a plain loop on the caller's
// goroutine — the serial reference path. ForEach returns only after
// every call has finished; completed work happens-before the return,
// so the caller may read results written by fn without further
// synchronisation.
//
// fn must be safe to call concurrently from multiple goroutines for
// distinct indices. A panic in fn crashes the process, as it would in
// the serial loop.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Work stealing via one atomic cursor: cheaper than a channel and
	// naturally balances uneven point costs (a 0%-drop chaos point is
	// much faster than a 50% one).
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
