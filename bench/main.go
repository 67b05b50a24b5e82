// Command bench is the MDN benchmark: it builds deterministic worlds
// from the repository's packages, advances each in 50 ms steps, and
// prints end-to-end metrics (an untraced run) or per-layer metrics (a
// traced run) with their units, after checking that the simulated
// outputs are correct. See README.md for every metric and workload.
//
//	bash bench/run.sh                          all four workloads
//	bash bench/run.sh -workload traffic -seed 2 -seconds 20
//	bash bench/run.sh -workload fleet-batch -trace 1
//	bash bench/run.sh -compare base.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	record   string
	label    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	compare := fs.Bool("compare", false, "compare two recorded result files: -compare BASE[#label] NEW[#label]")
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames()+" (default all)")
	fs.Int64Var(&o.seed, "seed", 1, "seed from which every input is derived")
	fs.Float64Var(&o.seconds, "seconds", 20, "run length; the simulated horizon is this times the workload's calibrated rate")
	fs.IntVar(&trace, "trace", 0, "1 runs a third of the horizon untraced, then traced, and prints per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.traceOut, "trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>.json)")
	fs.StringVar(&o.record, "record", "", "append every run's full result to this JSON file")
	fs.StringVar(&o.label, "label", "", "label stored with recorded results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if !(o.seconds > 0) || math.IsInf(o.seconds, 0) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	// The fleet fans out over GOMAXPROCS workers; more workers than CPUs
	// would time the scheduler, not the fleet.
	workers := runtime.GOMAXPROCS(0)
	if workers > runtime.NumCPU() {
		fmt.Fprintf(stderr, "bench: %d fleet workers (GOMAXPROCS) but only %d CPUs: refusing to start\n",
			workers, runtime.NumCPU())
		return 2
	}
	selected := workloads
	if o.workload != "" {
		wl, ok := workloadByName(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want %s)\n", o.workload, workloadNames())
			return 2
		}
		selected = []workload{wl}
	}

	env := stamp(workers)
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envLine)
	var recs []record
	for _, wl := range selected {
		rec, err := runWorkload(wl, o, env, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		recs = append(recs, rec)
	}
	if o.record != "" {
		if err := appendRecords(o.record, recs); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	final := summaryLine(recs, o.trace)
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return strings.Join(names, ", ")
}

// runWorkload runs one workload untraced and, with -trace 1, traced as
// well, then prints its metrics and checks.
func runWorkload(wl workload, o options, env envStamp, stdout io.Writer) (record, error) {
	horizon := wl.rate * o.seconds
	if o.trace {
		// A traced measurement runs the horizon twice, the second time up
		// to twice as slowly (the shadow replay on the fleet workloads),
		// so each run gets a third of the run length.
		horizon /= 3
	}
	cfg := runConfig{
		workload:  wl.name,
		seed:      o.seed,
		horizon:   horizon,
		workers:   env.FleetWorkers,
		setupReps: defaultSetupReps,
		setupWall: defaultSetupWall,
	}
	untraced, err := runOnce(cfg)
	if err != nil {
		return record{}, err
	}
	rec := record{
		Label: o.label, Workload: wl.name, Seed: o.seed, Seconds: o.seconds,
		HorizonS: math.Round(cfg.horizon/window) * window, Trace: o.trace, Env: env,
		Attempted: untraced.attempted, Failed: untraced.failed,
		Checks:  untraced.failures,
		Metrics: untraced.metrics,
	}
	if o.trace {
		cfg.traced = true
		traced, err := runOnce(cfg)
		if err != nil {
			return record{}, err
		}
		for _, f := range traced.failures {
			rec.Checks = append(rec.Checks, "traced run: "+f)
		}
		for _, d := range sameSimulation(untraced, traced) {
			rec.Checks = append(rec.Checks, "traced run departs from the untraced run: "+d)
		}
		rec.Metrics = mergeLayers(untraced, traced)
		path := o.traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace-"+wl.name+".json")
		}
		if err := traced.tr.writeChrome(path, wl.name, o.seed, layerValues(rec.Metrics)); err != nil {
			return record{}, err
		}
		fmt.Fprintf(stdout, "trace written to %s\n", path)
	}
	rec.Correct = len(rec.Checks) == 0
	printRecord(stdout, rec)
	return rec, nil
}

// sameSimulation lists the simulated-time metrics on which two runs of
// one seed and horizon differ; tracing and the fleet worker count must
// change no outcome.
func sameSimulation(a, b *runOut) []string {
	var diffs []string
	if a.attempted != b.attempted || a.failed != b.failed {
		diffs = append(diffs, fmt.Sprintf("attempted/failed %d/%d vs %d/%d",
			a.attempted, a.failed, b.attempted, b.failed))
	}
	for _, tab := range [][]metric{e2eMetrics, layerMetrics} {
		for _, m := range tab {
			va, okA := a.metrics[m.name]
			vb, okB := b.metrics[m.name]
			if m.sim && okA && okB && va != vb {
				diffs = append(diffs, fmt.Sprintf("%s %v vs %v", m.name, va, vb))
			}
		}
	}
	return diffs
}

// mergeLayers combines the two runs of a traced measurement: every
// metric the untraced run produced (end-to-end metrics, counters,
// dispatch times) comes from it, span-based metrics from the traced run,
// and the tracing overhead from their ratio.
func mergeLayers(untraced, traced *runOut) map[string]float64 {
	out := make(map[string]float64, len(untraced.metrics)+16)
	for k, v := range traced.metrics {
		out[k] = v
	}
	for k, v := range untraced.metrics {
		out[k] = v
	}
	out["trace.overhead_frac"] = 1 - traced.metrics["sim_rate"]/untraced.metrics["sim_rate"]
	return out
}

func layerValues(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(layerMetrics))
	for _, lm := range layerMetrics {
		out[lm.name] = m[lm.name]
	}
	return out
}

func printRecord(w io.Writer, rec record) {
	fmt.Fprintf(w, "== %s  seed=%d  horizon=%.6g sim-s (%d steps of %g ms)  fleet workers=%d\n",
		rec.Workload, rec.Seed, rec.HorizonS, int(math.Round(rec.HorizonS/window)), 1000*window, rec.Env.FleetWorkers)
	fmt.Fprintf(w, "react events: %d attempted, %d failed, %g completed\n",
		rec.Attempted, rec.Failed, rec.Metrics["react.events"])
	fmt.Fprintln(w, "end-to-end (untraced run):")
	for _, m := range e2eMetrics {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.name, rec.Metrics[m.name], m.unit)
	}
	if rec.Trace {
		fmt.Fprintln(w, "per-layer (traced run; counters from the untraced run):")
		for _, m := range layerMetrics {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.name, rec.Metrics[m.name], m.unit)
		}
	}
	if len(rec.Checks) == 0 {
		fmt.Fprintln(w, "checks: all passed")
		return
	}
	for _, c := range rec.Checks {
		fmt.Fprintf(w, "check FAILED: %s\n", c)
	}
}

// resultLine is the machine-readable result, the last line of standard
// output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine reports every end-to-end metric (or, traced, every
// per-layer metric). With several workloads the names are prefixed by
// the workload.
func summaryLine(recs []record, traced bool) resultLine {
	tab := e2eMetrics
	if traced {
		tab = layerMetrics
	}
	line := resultLine{Correct: true, Metrics: make(map[string]metricValue)}
	for _, rec := range recs {
		line.Correct = line.Correct && rec.Correct
		line.Attempted += rec.Attempted
		line.Failed += rec.Failed
		for _, m := range tab {
			name := m.name
			if len(recs) > 1 {
				name = rec.Workload + "." + name
			}
			line.Metrics[name] = metricValue{Value: rec.Metrics[m.name], Unit: m.unit}
		}
	}
	return line
}

// envStamp records where a result was measured.
type envStamp struct {
	Go           string `json:"go"`
	OS           string `json:"os"`
	Arch         string `json:"arch"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	FleetWorkers int    `json:"fleet_workers"`
	CPU          string `json:"cpu,omitempty"`
}

func stamp(workers int) envStamp {
	return envStamp{
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		FleetWorkers: workers, CPU: cpuModel(),
	}
}

// cpuModel reads the CPU model name when /proc/cpuinfo is readable.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// record is one workload run as stored by -record and read by -compare.
type record struct {
	Label     string             `json:"label,omitempty"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	HorizonS  float64            `json:"horizon_s"`
	Trace     bool               `json:"trace"`
	Env       envStamp           `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []string           `json:"failed_checks,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// readRecords loads a result file; a missing file is empty.
func readRecords(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// appendRecords adds records to a result file, one record per line.
func appendRecords(path string, add []record) error {
	recs, err := readRecords(path)
	if err != nil {
		return err
	}
	recs = append(recs, add...)
	var b strings.Builder
	b.WriteString("[\n")
	for i, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		b.Write(line)
		if i < len(recs)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
