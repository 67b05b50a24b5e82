package scenario

import (
	"fmt"

	"mdn/internal/parallel"
)

// maxSweepAxis bounds each grid axis so every cell's seed key is
// unique: with r·100 + c, cell (0, 100) would share cell (1, 0)'s key.
const maxSweepAxis = 100

// sweep is the one grid runner behind RunChaos, RunModemSweep and
// RunTrafficSweep. It calls point once per cell of a rows × cols grid,
// fanned over workers goroutines (GOMAXPROCS when <= 0), and returns
// the points in row-major order. Each cell's seed is
// mixSeed(seed·10⁴ + r·100 + c): a function of the grid position,
// never of execution order, and every point owns its whole world, so
// the result is identical at any worker count. An axis longer than
// maxSweepAxis is rejected before any point runs.
func sweep[P any](seed int64, workers, rows, cols int, point func(r, c int, seed int64) P) ([]P, error) {
	if rows > maxSweepAxis || cols > maxSweepAxis {
		return nil, fmt.Errorf("scenario: sweep grid %d × %d exceeds %d values on an axis",
			rows, cols, maxSweepAxis)
	}
	pts := make([]P, rows*cols)
	parallel.ForEach(len(pts), workers, func(i int) {
		r, c := i/cols, i%cols
		pts[i] = point(r, c, mixSeed(seed*10000+int64(r)*100+int64(c)))
	})
	return pts, nil
}

// mixSeed finalises a seed splitmix64-style. Sequential seeds fed
// straight to math/rand produce correlated early draws (a seed one
// apart can yield a fault stream with zero drops at 30% probability);
// mixing decorrelates the sweep's points.
func mixSeed(s int64) int64 {
	z := uint64(s) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
