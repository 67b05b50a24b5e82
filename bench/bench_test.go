package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// smokeHorizon is each workload's short test horizon in simulated
// seconds: long enough for at least one resolved react event, short
// enough that a run takes well under a second.
var smokeHorizon = map[string]float64{
	"fleet-batch":  2.5,
	"fleet-stream": 2,
	"traffic":      4,
	"modem-sync":   9,
}

func smokeRun(t *testing.T, workload string, seed int64, workers int, traced bool) *runOut {
	t.Helper()
	out, err := runOnce(runConfig{
		workload: workload, seed: seed, horizon: smokeHorizon[workload],
		workers: workers, traced: traced, setupReps: 1,
	})
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if len(out.failures) > 0 {
		t.Errorf("%s seed %d workers %d traced %v: checks failed: %v", workload, seed, workers, traced, out.failures)
	}
	return out
}

// sameSim reports the simulated-time metrics on which two runs differ.
func sameSim(t *testing.T, what string, a, b *runOut) {
	t.Helper()
	for _, d := range sameSimulation(a, b) {
		t.Errorf("%s: %s", what, d)
	}
}

// TestWorkloadsSmoke runs every workload at a short horizon on seed 1
// and the held-out seed 2: the checks pass, every end-to-end metric is
// positive, and simulated-time metrics repeat exactly across two runs,
// between the untraced and the traced run, and (fleet-batch) between 1
// and 2 fleet workers.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		first := smokeRun(t, wl.name, 1, 2, false)
		for _, m := range e2eMetrics {
			if v := first.metrics[m.name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive value", wl.name, m.name, v)
			}
		}
		sameSim(t, wl.name+" rerun", first, smokeRun(t, wl.name, 1, 2, false))
		sameSim(t, wl.name+" traced", first, smokeRun(t, wl.name, 1, 2, true))
		if wl.name == "fleet-batch" {
			sameSim(t, wl.name+" 1 vs 2 workers", first, smokeRun(t, wl.name, 1, 1, false))
		}
		smokeRun(t, wl.name, 2, 2, false)
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metric and
// workload tables in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(f.Workloads), len(workloads))
	}
	for i, wl := range f.Workloads {
		if wl.Name != workloads[i].name || wl.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, code %q %q", i, wl.Name, wl.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(f.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(f.EndToEnd), len(e2eMetrics))
	}
	for i, m := range f.EndToEnd {
		c := e2eMetrics[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || m.Bound != c.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, code %+v", i, m, c)
		}
	}
	if len(f.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(f.PerLayer), len(layerMetrics))
	}
	for i, m := range f.PerLayer {
		c := layerMetrics[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, code %+v", i, m, c)
		}
	}
}

// TestResultLineMatchesBenchmarkFile runs the command end to end, untraced
// and traced, and checks that the last line of output names every
// BENCHMARK.json metric with its unit.
func TestResultLineMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range f.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "modem-sync", "--seed", "3", "--seconds", "0.18",
			"--trace", trace, "--trace-out", t.TempDir() + "/trace.json"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s%s", trace, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want[trace]) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(res.Metrics), len(want[trace]))
		}
		for name, unit := range want[trace] {
			if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, name, got, unit)
			}
		}
	}
}

func TestRefusesMoreWorkersThanCPUs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("printed a result: %s", stdout.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, med, q3 := quartiles(xs); q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metric{name: "x", better: "lower", bound: 0.05}
	base := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		cur  []float64
		want string
	}{
		{[]float64{100, 101, 100, 99, 102}, verdictWithin},
		{[]float64{110, 111, 109, 110, 112}, verdictWorse},
		{[]float64{90, 91, 89, 90, 92}, verdictImproved},
		{[]float64{80, 120, 95, 105, 130}, verdictUnresolved},
	} {
		if got := compareMetric(lower, base, tc.cur).verdict; got != tc.want {
			t.Errorf("compare %v vs %v: %s, want %s", base, tc.cur, got, tc.want)
		}
	}
	unbounded := metric{name: "y", better: "higher"}
	for _, tc := range []struct {
		cur  []float64
		want string
	}{
		{[]float64{100, 101, 100, 99, 102}, verdictNoChange},
		{[]float64{110, 111, 109, 110, 112}, verdictImproved},
		{[]float64{90, 91, 89, 90, 92}, verdictWorse},
	} {
		if got := compareMetric(unbounded, base, tc.cur).verdict; got != tc.want {
			t.Errorf("compare unbounded %v vs %v: %s, want %s", base, tc.cur, got, tc.want)
		}
	}
}

// TestComparePairsSimulatedMetrics checks that a simulated-time metric is
// judged seed against seed: any differing pair is a change, however
// small, and unpaired runs fall back to the pooled rule.
func TestComparePairsSimulatedMetrics(t *testing.T) {
	sim := metric{name: "react_p50_ms", better: "lower", bound: 0.06, sim: true}
	recs := func(seeds []int64, vals ...float64) []record {
		var out []record
		for i, v := range vals {
			out = append(out, record{Seed: seeds[i], HorizonS: 10, Metrics: map[string]float64{sim.name: v}})
		}
		return out
	}
	seeds := []int64{1, 2, 3}
	base := recs(seeds, 90, 91, 92)
	for _, tc := range []struct {
		cur  []record
		want string
	}{
		{recs(seeds, 90, 91, 92), verdictIdentical},
		{recs(seeds, 90, 91.5, 92), verdictWorse},
		{recs(seeds, 89, 91, 92), verdictImproved},
		{recs(seeds, 89, 95, 92), verdictWorse},
	} {
		if got, ok := pairedVerdict(sim, base, tc.cur); !ok || got != tc.want {
			t.Errorf("paired %v: %s (paired %v), want %s", tc.cur, got, ok, tc.want)
		}
	}
	if _, ok := pairedVerdict(sim, base, recs([]int64{4, 5, 6}, 90, 91, 92)); ok {
		t.Error("runs of other seeds paired up")
	}
}
