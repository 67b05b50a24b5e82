package experiments

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// Every experiment must run and preserve the paper's shape. These are
// the repository's headline integration tests.

func runAndCheck(t *testing.T, id string) *Result {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	r := e.Run()
	if r.ID != id {
		t.Errorf("result ID = %q", r.ID)
	}
	if !r.Pass() {
		t.Errorf("experiment %s failed shape checks:\n%s", id, Render(r))
	}
	return r
}

func TestFig2a(t *testing.T) { runAndCheck(t, "fig2a") }

// TestFig2aDeterministic pins fig2a's output run to run: the per-switch
// rows come in allocation order, s1…s5, and the spectrum is identical.
func TestFig2aDeterministic(t *testing.T) {
	a, b := Fig2a(), Fig2a()
	if !reflect.DeepEqual(a.Rows, b.Rows) || !reflect.DeepEqual(a.Series, b.Series) {
		t.Fatalf("two runs differ:\n%s\n%s", Render(a), Render(b))
	}
	for i := 0; i < 5; i++ {
		if want := fmt.Sprintf("switch s%d ", i+1); !strings.HasPrefix(a.Rows[i].Name, want) {
			t.Errorf("row %d = %q, want prefix %q", i, a.Rows[i].Name, want)
		}
	}
}

func TestFig2b(t *testing.T) {
	r := runAndCheck(t, "fig2b")
	if len(r.Series) == 0 || len(r.Series[0].X) < 50 {
		t.Error("CDF series too small")
	}
}

func TestFig3(t *testing.T) {
	r := runAndCheck(t, "fig3")
	if len(r.Series) != 2 {
		t.Errorf("want sent+received series, got %d", len(r.Series))
	}
}

func TestFig4a(t *testing.T) { runAndCheck(t, "fig4a") }
func TestFig4b(t *testing.T) { runAndCheck(t, "fig4b") }
func TestFig4c(t *testing.T) { runAndCheck(t, "fig4c") }
func TestFig4d(t *testing.T) { runAndCheck(t, "fig4d") }

func TestFig5ab(t *testing.T) { runAndCheck(t, "fig5ab") }
func TestFig5cd(t *testing.T) { runAndCheck(t, "fig5cd") }

func TestFig6(t *testing.T) { runAndCheck(t, "fig6") }
func TestFig7(t *testing.T) { runAndCheck(t, "fig7") }

func TestSec3Spacing(t *testing.T)  { runAndCheck(t, "sec3-spacing") }
func TestSec3Duration(t *testing.T) { runAndCheck(t, "sec3-duration") }
func TestSec5Capacity(t *testing.T) { runAndCheck(t, "sec5-capacity") }

func TestAllRegistryComplete(t *testing.T) {
	want := []string{
		"fig2a", "fig2b", "fig3", "fig4a", "fig4b", "fig4c", "fig4d",
		"fig5ab", "fig5cd", "fig6", "fig7",
		"sec3-spacing", "sec3-duration", "sec5-capacity",
		"ext-failover", "ext-superspreader", "ext-relay",
		"ext-congestion", "ext-ultrasound", "ext-micarray",
		"ext-fananomaly", "ext-fandistance", "ext-heartbeat", "ext-latency",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, all[i].ID, id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown ID should not resolve")
	}
}

func TestRenderOutput(t *testing.T) {
	r := &Result{ID: "x", Title: "demo"}
	r.row("check", "yes", true, "measured %d", 42)
	r.row("bad", "no", false, "oops")
	r.note("a note")
	r.addSeries("s", []float64{0, 1, 2}, []float64{0, 1, 0})
	out := Render(r)
	for _, want := range []string{"FAIL", "demo", "measured 42", "MISMATCH", "a note", "-- s"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Empty series render gracefully.
	if !strings.Contains(RenderChart(Series{Name: "e"}, 10, 4), "no data") {
		t.Error("empty chart should say no data")
	}
	// A result with no rows never passes.
	if (&Result{}).Pass() {
		t.Error("empty result should not pass")
	}
}

func TestExtFailover(t *testing.T)      { runAndCheck(t, "ext-failover") }
func TestExtSuperspreader(t *testing.T) { runAndCheck(t, "ext-superspreader") }
func TestExtRelay(t *testing.T)         { runAndCheck(t, "ext-relay") }
func TestExtCongestion(t *testing.T)    { runAndCheck(t, "ext-congestion") }
func TestExtUltrasound(t *testing.T)    { runAndCheck(t, "ext-ultrasound") }
func TestExtMicArray(t *testing.T)      { runAndCheck(t, "ext-micarray") }

// TestExtMicArrayAttributesZones pins ext-micarray's zone attribution:
// each of the two zones' shared 700 Hz tones goes to its own, louder
// microphone for both of its windows, and no window goes to the other.
func TestExtMicArrayAttributesZones(t *testing.T) {
	r := ExtMicArray()
	want := []string{"2 windows", "2 windows", "0 wrong"}
	if len(r.Rows) != len(want) {
		t.Fatalf("rows:\n%s", Render(r))
	}
	for i, row := range r.Rows {
		if row.Measured != want[i] || !row.OK {
			t.Errorf("row %q: measured %q ok=%v, want %q", row.Name, row.Measured, row.OK, want[i])
		}
	}
}

func TestExtFanAnomaly(t *testing.T)  { runAndCheck(t, "ext-fananomaly") }
func TestExtFanDistance(t *testing.T) { runAndCheck(t, "ext-fandistance") }

func TestMarkdownTable(t *testing.T) {
	r := &Result{ID: "x", Title: "demo | pipe"}
	r.row("a|b", "yes", true, "got %d", 1)
	r.row("bad", "no", false, "oops")
	r.note("careful | here")
	out := MarkdownTable([]*Result{r})
	for _, want := range []string{"## x", "(FAIL)", "a\\|b", "**(mismatch)**", "*careful \\| here*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestExtHeartbeat(t *testing.T) { runAndCheck(t, "ext-heartbeat") }

func TestExtControlLatency(t *testing.T) { runAndCheck(t, "ext-latency") }

func TestAudioAttachmentAndMelSpectrogram(t *testing.T) {
	r := runAndCheck(t, "fig5cd")
	if r.Audio == nil || r.Audio.Len() == 0 {
		t.Fatal("fig5cd should attach controller-mic audio")
	}
	if r.AudioLabel == "" {
		t.Error("audio label missing")
	}
	mel := r.MelSpectrogram(32, 8000)
	if len(mel) < 50 {
		t.Fatalf("mel frames = %d", len(mel))
	}
	if len(mel[0]) != 32 {
		t.Fatalf("mel bands = %d", len(mel[0]))
	}
	// A result without audio renders nil.
	empty := &Result{}
	if empty.MelSpectrogram(32, 8000) != nil {
		t.Error("no-audio result should yield nil spectrogram")
	}
}

// TestScenarioFiguresBuildNoWorld: the network figures and extensions
// build their worlds through scenario.Build, so a runner fix reaches
// them. Their files must not grow a world builder of their own again.
func TestScenarioFiguresBuildNoWorld(t *testing.T) {
	for _, f := range []string{"fig3.go", "fig4.go", "fig5.go", "superspreader.go", "netext.go"} {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, call := range []string{"netsim.NewSim", "acoustic.NewRoom", "core.NewController", "NewVoice"} {
			if strings.Contains(string(src), call) {
				t.Errorf("%s calls %s", f, call)
			}
		}
	}
}
