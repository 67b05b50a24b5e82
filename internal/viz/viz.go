// Package viz renders MDN signal data as terminal graphics: ASCII
// heatmaps for (mel-)spectrograms like the paper's Figures 3b–6, and
// intensity ramps for amplitude data. It exists so the tooling can
// show what the paper's figures show without an image stack.
package viz

import (
	"fmt"
	"math"
	"strings"
)

// ramp is the intensity ramp from quiet to loud.
const ramp = " .:-=+*#%@"

// Cell maps a normalised intensity in [0, 1] to a ramp character.
func Cell(v float64) byte {
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	idx := int(v * float64(len(ramp)-1))
	return ramp[idx]
}

// Heatmap renders rows×cols data (rows = time or series, cols =
// frequency bands) as an ASCII heatmap, normalised to the data's dB
// range. Data values are powers (or squared magnitudes); zero and
// negative values clamp to the floor. maxRows/maxCols downsample
// large inputs by max-pooling, preserving transients.
func Heatmap(data [][]float64, maxRows, maxCols int) string {
	if len(data) == 0 || len(data[0]) == 0 {
		return "[empty heatmap]\n"
	}
	rows := len(data)
	cols := len(data[0])
	outRows := rows
	if maxRows > 0 && outRows > maxRows {
		outRows = maxRows
	}
	outCols := cols
	if maxCols > 0 && outCols > maxCols {
		outCols = maxCols
	}
	// Max-pool into the output grid, in dB.
	const floorDB = -100.0
	grid := make([][]float64, outRows)
	minDB, maxDB := math.Inf(1), math.Inf(-1)
	for r := 0; r < outRows; r++ {
		grid[r] = make([]float64, outCols)
		r0 := r * rows / outRows
		r1 := (r + 1) * rows / outRows
		if r1 <= r0 {
			r1 = r0 + 1
		}
		for c := 0; c < outCols; c++ {
			c0 := c * cols / outCols
			c1 := (c + 1) * cols / outCols
			if c1 <= c0 {
				c1 = c0 + 1
			}
			peak := 0.0
			for i := r0; i < r1 && i < rows; i++ {
				for j := c0; j < c1 && j < len(data[i]); j++ {
					if data[i][j] > peak {
						peak = data[i][j]
					}
				}
			}
			db := floorDB
			if peak > 0 {
				db = 10 * math.Log10(peak)
				if db < floorDB {
					db = floorDB
				}
			}
			grid[r][c] = db
			if db < minDB {
				minDB = db
			}
			if db > maxDB {
				maxDB = db
			}
		}
	}
	if maxDB <= minDB {
		maxDB = minDB + 1
	}
	var b strings.Builder
	for _, row := range grid {
		line := make([]byte, len(row))
		for c, db := range row {
			line[c] = Cell((db - minDB) / (maxDB - minDB))
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// SpectrogramView renders a spectrogram-shaped dataset with time on
// the vertical axis (top = start) and labelled frequency extents.
func SpectrogramView(title string, data [][]float64, t0, t1, f0, f1 float64, maxRows, maxCols int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "time %.2fs (top) -> %.2fs (bottom); freq %.0f Hz (left) -> %.0f Hz (right)\n",
		t0, t1, f0, f1)
	b.WriteString(Heatmap(data, maxRows, maxCols))
	return b.String()
}
