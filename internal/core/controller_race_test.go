package core

import (
	"sync"
	"testing"
)

// TestSubscribeDuringRunIsRaceFree registers subscribers from other
// goroutines while the simulation dispatches windows — the documented
// cross-goroutine contract of SubscribeWindows. Run with
// -race (CI does): a torn subscriber slice or unlocked append shows up
// as a data race, not a flake.
func TestSubscribeDuringRunIsRaceFree(t *testing.T) {
	tb, ctrl := supervisedController(21)
	var mu sync.Mutex
	windows := make(map[int]int)
	ctrl.Start(0)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ctrl.SubscribeWindows(func(float64, []Detection) {
				mu.Lock()
				windows[g]++
				mu.Unlock()
			})
			ctrl.SubscribeWindowsNamed("", func(float64, []Detection) {})
		}()
	}
	close(start)
	// Drive the simulation while registrations land. RunUntil processes
	// events on this goroutine; the subscribers arrive concurrently.
	for step := 1; step <= 100; step++ {
		tb.sim.RunUntil(float64(step) * 0.05)
	}
	wg.Wait()
	tb.sim.RunUntil(6)

	if got := len(ctrl.Subscribers()); got != 16 {
		t.Fatalf("registered %d subscribers, want 16", got)
	}
	mu.Lock()
	defer mu.Unlock()
	for g := 0; g < 8; g++ {
		if windows[g] == 0 {
			t.Errorf("goroutine %d's handler never saw a window", g)
		}
	}
}
