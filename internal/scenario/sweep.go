package scenario

import (
	"fmt"
	"runtime"

	"mdn/internal/parallel"
	"mdn/internal/splitmix"
)

// maxSweepAxis bounds each grid axis so every cell's seed key is
// unique: with r·100 + c, cell (0, 100) would share cell (1, 0)'s key.
const maxSweepAxis = 100

// sweep is the one grid runner behind RunChaos, RunModemSweep and
// RunTrafficSweep. It calls point once per cell of a rows × cols grid,
// fanned over workers goroutines (GOMAXPROCS when <= 0), and returns
// the points in row-major order. Each point's world gets its share of
// the processors for its controller's fleet, fleet =
// max(1, GOMAXPROCS / points running at once), so points running side
// by side do not each spin GOMAXPROCS fleet workers; a fleet's
// detections are the same at any worker count. Each cell's seed is
// mixSeed(seed·10⁴ + r·100 + c): a function of the grid position,
// never of execution order, and every point owns its whole world, so
// the result is identical at any worker count. An axis longer than
// maxSweepAxis is rejected before any point runs.
func sweep[P any](seed int64, workers, rows, cols int, point func(r, c int, seed int64, fleet int) P) ([]P, error) {
	if rows > maxSweepAxis || cols > maxSweepAxis {
		return nil, fmt.Errorf("scenario: sweep grid %d × %d exceeds %d values on an axis",
			rows, cols, maxSweepAxis)
	}
	pts := make([]P, rows*cols)
	fleet := max(1, runtime.GOMAXPROCS(0)/max(1, min(parallel.Workers(workers), len(pts))))
	parallel.ForEach(len(pts), workers, func(i int) {
		r, c := i/cols, i%cols
		pts[i] = point(r, c, mixSeed(seed*10000+int64(r)*100+int64(c)), fleet)
	})
	return pts, nil
}

// mixSeed finalises a seed with one SplitMix64 step, so neighbouring
// grid cells and switches get unrelated seeds for every generator
// they feed, math/rand ones included (sequential math/rand seeds give
// correlated early draws: a seed one apart once yielded a fault stream
// with zero drops at 30 % probability).
func mixSeed(s int64) int64 {
	return int64(splitmix.Mix(uint64(s) + splitmix.Gamma))
}
