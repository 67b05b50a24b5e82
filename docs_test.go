package mdn

import (
	"os"
	"strings"
	"testing"

	"mdn/internal/experiments"
)

// TestDocsCoverEveryExperiment keeps the documentation honest: every
// registered experiment ID must appear verbatim in DESIGN.md's index
// and in EXPERIMENTS.md, and every bench target named in DESIGN.md
// must exist in bench_test.go.
func TestDocsCoverEveryExperiment(t *testing.T) {
	design := readFile(t, "DESIGN.md")
	expmd := readFile(t, "EXPERIMENTS.md")
	bench := readFile(t, "bench_test.go")

	for _, e := range experiments.All() {
		if !strings.Contains(design, e.ID) {
			t.Errorf("DESIGN.md does not mention experiment %q", e.ID)
		}
		if !strings.Contains(expmd, e.ID) {
			t.Errorf("EXPERIMENTS.md does not mention experiment %q", e.ID)
		}
	}

	// Every bench target DESIGN.md promises must exist.
	for _, line := range strings.Split(design, "\n") {
		for _, tok := range strings.Fields(line) {
			tok = strings.Trim(tok, "`|")
			if strings.HasPrefix(tok, "Benchmark") && !strings.Contains(tok, "(") {
				if !strings.Contains(bench, "func "+tok+"(") {
					t.Errorf("DESIGN.md names %s but bench_test.go does not define it", tok)
				}
			}
		}
	}
}

// TestReadmeMentionsAllExamples keeps the README example table in
// sync with the examples directory.
func TestReadmeMentionsAllExamples(t *testing.T) {
	readme := readFile(t, "README.md")
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && !strings.Contains(readme, "examples/"+e.Name()) {
			t.Errorf("README.md does not mention examples/%s", e.Name())
		}
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
