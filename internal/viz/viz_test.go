package viz

import (
	"math"
	"strings"
	"testing"
)

func TestCellRange(t *testing.T) {
	if Cell(0) != ' ' {
		t.Errorf("Cell(0) = %q", Cell(0))
	}
	if Cell(1) != '@' {
		t.Errorf("Cell(1) = %q", Cell(1))
	}
	if Cell(-5) != ' ' || Cell(7) != '@' {
		t.Error("out-of-range values should clamp")
	}
	if Cell(math.NaN()) != ' ' {
		t.Error("NaN should clamp to quiet")
	}
	// Monotone ramp.
	prev := -1
	for v := 0.0; v <= 1.0; v += 0.05 {
		idx := strings.IndexByte(ramp, Cell(v))
		if idx < prev {
			t.Fatalf("ramp not monotone at %g", v)
		}
		prev = idx
	}
}

func TestHeatmapShape(t *testing.T) {
	data := make([][]float64, 40)
	for i := range data {
		data[i] = make([]float64, 100)
		data[i][i*2] = 1 // a diagonal streak
	}
	out := Heatmap(data, 10, 50)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("rows = %d, want 10", len(lines))
	}
	for _, l := range lines {
		if len(l) != 50 {
			t.Fatalf("cols = %d, want 50", len(l))
		}
	}
	// The streak must survive max-pooling: each row has one loud cell.
	for i, l := range lines {
		if !strings.Contains(l, "@") {
			t.Errorf("row %d lost its streak: %q", i, l)
		}
	}
}

func TestHeatmapEmpty(t *testing.T) {
	if !strings.Contains(Heatmap(nil, 5, 5), "empty") {
		t.Error("nil data should render placeholder")
	}
	if !strings.Contains(Heatmap([][]float64{{}}, 5, 5), "empty") {
		t.Error("empty rows should render placeholder")
	}
}

func TestHeatmapFlat(t *testing.T) {
	data := [][]float64{{1, 1}, {1, 1}}
	out := Heatmap(data, 2, 2)
	if len(out) == 0 {
		t.Fatal("flat heatmap should still render")
	}
}

func TestHeatmapNoDownsampleWhenSmall(t *testing.T) {
	data := [][]float64{{0, 1}, {1, 0}}
	out := strings.Split(strings.TrimRight(Heatmap(data, 10, 10), "\n"), "\n")
	if len(out) != 2 || len(out[0]) != 2 {
		t.Fatalf("shape = %dx%d", len(out), len(out[0]))
	}
	if out[0][1] != '@' || out[1][0] != '@' {
		t.Errorf("loud cells misplaced:\n%s", strings.Join(out, "\n"))
	}
}

func TestSpectrogramViewHeader(t *testing.T) {
	out := SpectrogramView("demo", [][]float64{{1}}, 0, 2, 100, 8000, 4, 4)
	if !strings.Contains(out, "demo") || !strings.Contains(out, "0.00s") ||
		!strings.Contains(out, "8000 Hz") {
		t.Errorf("header missing: %s", out)
	}
}
