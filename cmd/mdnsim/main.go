// Command mdnsim runs a Music-Defined Networking deployment described
// in a JSON scenario file: topology, applications, traffic, and room
// noise. It prints a run report (text or JSON). With -stream the
// controller runs the streaming low-latency detection path — the
// analysis window advances by -hop seconds per step instead of a whole
// 50 ms window — and the report gains sound-to-detection latency
// percentiles. With -sweep chaos|modem|traffic it instead runs a
// built-in sweep whose column axis -grid sets: control-channel drop
// rates for the end-to-end pipelines, symbol-corruption rates for the
// modem's FEC schemes, or flow counts for the exact-vs-sketch analytics
// comparison; sweep reports are byte-identical at any -workers
// setting. With -metrics the run's telemetry registry is dumped to
// stdout after the report, in Prometheus text exposition format. A
// flag the selected mode does not read is an error.
//
// Usage:
//
//	mdnsim -f scenarios/telemetry.json
//	mdnsim -f scenario.json -json
//	mdnsim -f scenario.json -stream -hop 0.01
//	cat scenario.json | mdnsim
//	mdnsim -sweep chaos -seed 7
//	mdnsim -sweep chaos -grid 0,0.3 -duration 10 -json
//	mdnsim -sweep chaos -workers 4 -metrics
//	mdnsim -sweep modem -grid 0,0.05 -stream
//	mdnsim -sweep traffic -grid 10000,100000 -workers 4 -json
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"mdn/internal/scenario"
	"mdn/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "mdnsim:", err)
		os.Exit(1)
	}
}

// modeFlags lists the flags each mode reads; "" is the scenario-file
// mode. Any other flag set explicitly is an error rather than silently
// ignored.
var modeFlags = map[string][]string{
	"":        {"json", "metrics", "f", "stream", "hop"},
	"chaos":   {"json", "metrics", "sweep", "grid", "seed", "workers", "duration", "stream", "hop"},
	"modem":   {"json", "metrics", "sweep", "grid", "seed", "workers", "stream", "hop"},
	"traffic": {"json", "metrics", "sweep", "grid", "seed", "workers"},
}

// run parses args, runs the selected scenario or sweep, and writes the
// report (and, with -metrics, the telemetry dump) to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mdnsim", flag.ContinueOnError)
	var (
		file     = fs.String("f", "", "scenario JSON file (default: stdin)")
		jsonOut  = fs.Bool("json", false, "emit the report as JSON")
		mode     = fs.String("sweep", "", "run a built-in sweep instead of a scenario file: chaos, modem or traffic")
		grid     = fs.String("grid", "", "comma-separated column axis of the sweep: drop rates (chaos, default 0,0.1,0.3,0.5), corruption rates (modem, default 0,0.02,0.05,0.1) or flow counts (traffic, default 10000,100000,1000000)")
		duration = fs.Float64("duration", 0, "simulated seconds per chaos point (default 30)")
		seed     = fs.Int64("seed", 1, "sweep seed")
		workers  = fs.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = serial); the report is identical at any setting")
		metrics  = fs.Bool("metrics", false, "dump the run's telemetry in Prometheus text format after the report")
		stream   = fs.Bool("stream", false, "run the streaming low-latency detection path (scenario, chaos and modem runs)")
		hop      = fs.Float64("hop", 0, "streaming hop in seconds (default 0.01; must subdivide the 50 ms window into whole samples)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reads, ok := modeFlags[*mode]
	if !ok {
		return fmt.Errorf("unknown -sweep %q (have chaos, modem, traffic)", *mode)
	}
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(reads, f.Name) {
			unread = append(unread, "-"+f.Name)
		}
	})
	if unread != nil {
		return fmt.Errorf("%s not read by the %s run", strings.Join(unread, ", "), cmp.Or(*mode, "scenario"))
	}
	if *hop != 0 && !*stream {
		return fmt.Errorf("-hop requires -stream")
	}
	streamHop := 0.0
	if *stream {
		streamHop = *hop
		if streamHop == 0 {
			streamHop = scenario.DefaultHopS
		}
	}

	if *mode == "" {
		rep, err := runScenario(*file, *stream, *hop)
		if err != nil {
			return err
		}
		return write(stdout, rep, formatReport(rep), rep.Metrics, *jsonOut, *metrics)
	}
	reg := telemetry.New()
	rep, err := runSweep(*mode, *grid, *seed, *workers, *duration, streamHop, reg)
	if err != nil {
		return err
	}
	snap := reg.Snapshot()
	return write(stdout, rep, rep.Table(), &snap, *jsonOut, *metrics)
}

// runSweep runs the named sweep with grid as its column axis, recording
// its telemetry into reg.
func runSweep(mode, grid string, seed int64, workers int, duration, streamHop float64, reg *telemetry.Registry) (interface{ Table() string }, error) {
	if mode == "traffic" {
		flows, err := parseGrid(grid, strconv.Atoi)
		if err != nil {
			return nil, err
		}
		return scenario.RunTrafficSweep(scenario.TrafficSweepConfig{Seed: seed, FlowCounts: flows, Workers: workers}, reg)
	}
	rates, err := parseGrid(grid, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
	if err != nil {
		return nil, err
	}
	if mode == "modem" {
		return scenario.RunModemSweep(scenario.ModemSweepConfig{Seed: seed, CorruptRates: rates,
			StreamHop: streamHop, Workers: workers}, reg)
	}
	return scenario.RunChaos(scenario.ChaosConfig{Seed: seed, DropRates: rates, DurationS: duration,
		StreamHop: streamHop, Workers: workers}, reg)
}

// write prints the report as indented JSON or as its table, then, with
// metrics, the telemetry dump after a blank line (so the dump itself
// stays parseable).
func write(stdout io.Writer, rep any, table string, snap *telemetry.Snapshot, jsonOut, metrics bool) error {
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Fprint(stdout, table)
	}
	if !metrics || snap == nil {
		return nil
	}
	fmt.Fprintln(stdout)
	return snap.WriteText(stdout)
}

// runScenario loads a scenario file (stdin when path is empty), applies
// the -stream / -hop overrides, and runs it.
func runScenario(path string, stream bool, hop float64) (*scenario.Report, error) {
	var in io.Reader = os.Stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	cfg, err := scenario.Load(in)
	if err != nil {
		return nil, err
	}
	if stream {
		cfg.Stream = true
		if hop != 0 {
			cfg.HopS = hop
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	return scenario.Run(cfg)
}

// parseGrid parses a comma-separated -grid list; empty means the
// sweep's default axis.
func parseGrid[T any](list string, parse func(string) (T, error)) ([]T, error) {
	if list == "" {
		return nil, nil
	}
	var out []T
	for _, s := range strings.Split(list, ",") {
		v, err := parse(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("parsing -grid: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}

// formatReport renders a scenario run report as text.
func formatReport(rep *scenario.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %q: %.1f s simulated, %d capture windows, %d tone detections\n\n",
		rep.Name, rep.DurationS, rep.WindowsAnalysed, rep.TonesDetected)
	fmt.Fprintln(&b, "hosts:")
	for _, h := range rep.Hosts {
		fmt.Fprintf(&b, "  %-8s tx %6d pkts / %9d B    rx %6d pkts / %9d B\n",
			h.Name, h.TxPackets, h.TxBytes, h.RxPackets, h.RxBytes)
	}
	fmt.Fprintln(&b, "\napplications:")
	for _, a := range rep.Apps {
		fmt.Fprintf(&b, "  %s on %s: %d event(s)\n", a.Type, a.Switch, len(a.Events))
		shown := min(len(a.Events), 12)
		for _, e := range a.Events[:shown] {
			fmt.Fprintf(&b, "    %s\n", e)
		}
		if rest := len(a.Events) - shown; rest > 0 {
			fmt.Fprintf(&b, "    ... and %d more\n", rest)
		}
	}
	if h := rep.Health; h != nil {
		fmt.Fprintf(&b, "\ncontroller health: %s", h.StateName)
		if len(h.Reasons) > 0 {
			fmt.Fprintf(&b, " (%s)", strings.Join(h.Reasons, "; "))
		}
		fmt.Fprintf(&b, "\n  %d window(s), %d recovered panic(s), %d quarantined, %d error(s) logged\n",
			h.Windows, h.HandlerPanics, len(h.Quarantined), h.ErrorsTotal)
		for _, w := range h.Wire {
			fmt.Fprintf(&b, "  wire %-8s %-8s sent %6d  dropped %5d  corrupted %5d\n",
				w.Kind, w.Name, w.Sent, w.Dropped, w.Corrupted)
		}
	}
	if len(rep.Devices) > 0 {
		fmt.Fprintln(&b, "\ndevices:")
		for _, d := range rep.Devices {
			fmt.Fprintf(&b, "  %-8s %-8s %-8s", d.Kind, d.Name, d.State)
			if d.Kind == "mic" {
				fmt.Fprintf(&b, " noise %.6f", d.NoiseFloor)
				if d.Floor > 0 {
					fmt.Fprintf(&b, " floor %.6f", d.Floor)
				}
				if d.Quarantined {
					fmt.Fprint(&b, " QUARANTINED")
				}
			} else {
				if d.DetuneRatio != 0 && d.DetuneRatio != 1 {
					fmt.Fprintf(&b, " detune ×%.4f", d.DetuneRatio)
				}
				if d.Muted {
					fmt.Fprint(&b, " MUTED")
				}
			}
			fmt.Fprintf(&b, "  recal %d quarantine %d rejoin %d rekey %d\n",
				d.Recalibrations, d.Quarantines, d.Rejoins, d.Rekeys)
		}
	}
	if s := rep.Stream; s != nil {
		fmt.Fprintf(&b, "\nstreaming path: hop %.0f ms, %d hop(s), %d onset(s), %d capture error(s)\n",
			s.HopS*1000, s.Hops, s.Onsets, s.CaptureErrors)
		fmt.Fprintf(&b, "  sound-to-detection latency: p50 %.1f ms, p99 %.1f ms (sim time)\n",
			s.DetectP50*1000, s.DetectP99*1000)
	}
	return b.String()
}
