package scenario

import (
	"encoding/json"
	"runtime"
	"testing"

	"mdn/internal/parallel"
)

// TestSweepsByteIdentical is the sweeps' determinism contract, asserted
// once over every sweep: each report marshals to the same JSON bytes at
// 1 and 4 workers, and the chaos and modem sweeps streamed at
// hop == window (0.05 s) match their batch runs — at that hop the
// streaming pipeline makes the same capture spans, float operations
// and dispatches as the batch loop.
func TestSweepsByteIdentical(t *testing.T) {
	chaos := func(seed int64) func(workers int, hop float64) (any, error) {
		return func(workers int, hop float64) (any, error) {
			return RunChaos(ChaosConfig{Seed: seed, DropRates: []float64{0, 0.3}, DurationS: 8,
				StreamHop: hop, Workers: workers}, nil)
		}
	}
	sweeps := []struct {
		name   string
		stream bool // also check stream at hop == window against batch
		run    func(workers int, hop float64) (any, error)
	}{
		{"chaos/seed=7", true, chaos(7)},
		{"chaos/seed=41", false, chaos(41)},
		{"modem", true, func(workers int, hop float64) (any, error) {
			return RunModemSweep(ModemSweepConfig{Seed: 7, CorruptRates: []float64{0, 0.05},
				StreamHop: hop, Workers: workers}, nil)
		}},
		{"traffic", false, func(workers int, _ float64) (any, error) {
			return RunTrafficSweep(TrafficSweepConfig{Seed: 42, FlowCounts: []int{2000, 8000}, Workers: workers}, nil)
		}},
	}
	for _, s := range sweeps {
		t.Run(s.name, func(t *testing.T) {
			marshal := func(workers int, hop float64) string {
				t.Helper()
				rep, err := s.run(workers, hop)
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				return string(b)
			}
			serial := marshal(1, 0)
			if got := marshal(4, 0); got != serial {
				t.Errorf("workers 4 diverged from serial:\n%s\nvs\n%s", got, serial)
			}
			if !s.stream {
				return
			}
			if got := marshal(1, 0.05); got != serial {
				t.Errorf("stream at hop == window diverged from batch:\n%s\nvs\n%s", got, serial)
			}
		})
	}
}

// TestSweepSeedsFollowGridPosition pins the one seed key: cell (r, c)
// of a sweep seeded s runs with mixSeed(s·10⁴ + r·100 + c), and points
// come back in row-major order.
func TestSweepSeedsFollowGridPosition(t *testing.T) {
	type cell struct {
		r, c int
		seed int64
	}
	pts, err := sweep(3, 4, 2, 3, func(r, c int, seed int64, _ int) cell { return cell{r, c, seed} })
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		r, c := i/3, i%3
		if want := (cell{r, c, mixSeed(30000 + int64(r)*100 + int64(c))}); p != want {
			t.Errorf("point %d = %+v, want %+v", i, p, want)
		}
	}
}

// TestSweepSharesProcessorsAmongPoints: a point's fleet gets the
// processors its sibling points leave it, so the points running at once
// never ask for more fleet workers in total than GOMAXPROCS (or one
// each), and a serial sweep gives its one point all of them.
func TestSweepSharesProcessorsAmongPoints(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, workers := range []int{1, 2, 4, 0} {
		fleets, err := sweep(1, workers, 2, 3, func(_, _ int, _ int64, fleet int) int { return fleet })
		if err != nil {
			t.Fatal(err)
		}
		running := min(parallel.Workers(workers), len(fleets))
		for i, fleet := range fleets {
			if fleet < 1 || fleet*running > max(procs, running) || workers == 1 && fleet != procs {
				t.Errorf("workers %d, point %d: fleet of %d workers beside %d points on %d processors", workers, i, fleet, running, procs)
			}
		}
	}
}

// TestSweepRejectsAxisOver100: with the r·100 + c key, 101 drop rates
// would give cell (0, 100) the seed of cell (1, 0). The runner refuses
// the grid before any point runs.
func TestSweepRejectsAxisOver100(t *testing.T) {
	drops := make([]float64, 101)
	if _, err := RunChaos(ChaosConfig{DropRates: drops, DurationS: 5}, nil); err == nil {
		t.Error("101 drop rates accepted")
	}
	ran := false
	if _, err := sweep(1, 1, 101, 1, func(int, int, int64, int) bool { ran = true; return true }); err == nil {
		t.Error("101 rows accepted")
	}
	if ran {
		t.Error("a point ran before the grid was rejected")
	}
}
