package main

import (
	"bytes"
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mdn/internal/scenario"
	"mdn/internal/telemetry"
)

// TestChaosMetricsDumpParses is the -metrics acceptance check: a chaos
// run under packet loss must produce a telemetry dump that parses as
// Prometheus text, carries a nonzero decode-latency histogram and the
// canary's panics, and accounts for the Flow-MODs s1's channel lost:
// each lost send is one retry and every rule lands. It runs CI's
// `mdnsim -sweep chaos -duration 8 -grid 0.3 -metrics` from seed 7 up
// to the first seed whose run loses a Flow-MOD on s1: s1 carries two
// rules a run, so both first sends survive 30 % loss about half the
// time.
func TestChaosMetricsDumpParses(t *testing.T) {
	for seed := int64(7); seed < 27; seed++ {
		reg := telemetry.New()
		_, err := scenario.RunChaos(scenario.ChaosConfig{
			Seed:      seed,
			DropRates: []float64{0.3},
			DurationS: 8,
		}, reg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := reg.Snapshot().WriteText(&b); err != nil {
			t.Fatal(err)
		}
		text := b.String()
		if err := telemetry.ValidateText(strings.NewReader(text)); err != nil {
			t.Fatalf("seed %d: metrics dump does not parse: %v\n%s", seed, err, text)
		}
		if v := sampleValue(t, text, `mdn_controller_decode_seconds_count`); v == 0 {
			t.Errorf("seed %d: decode-latency histogram recorded no windows", seed)
		}
		if v := sampleValue(t, text, `mdn_controller_handler_panics_total`); v == 0 {
			t.Errorf("seed %d: canary panics missing from the dump", seed)
		}
		s1 := func(metric string) float64 { return sampleValue(t, text, metric+`\{switch="s1"\}`) }
		wire := func(metric string) float64 {
			return sampleValue(t, text, metric+`\{kind="channel",name="s1"\}`)
		}
		lost := wire("mdn_wire_dropped_total") + wire("mdn_wire_corrupted_total")
		if lost == 0 {
			continue
		}
		attempts, retries := s1("mdn_flow_attempts_total"), s1("mdn_flow_retries_total")
		installs, failures := s1("mdn_flow_installs_total"), s1("mdn_flow_failures_total")
		if sent := wire("mdn_wire_sent_total"); attempts != sent {
			t.Errorf("seed %d: %g flow attempts on s1, but its channel sent %g", seed, attempts, sent)
		}
		if failures != 0 || retries != lost || installs != attempts-retries || installs == 0 {
			t.Errorf("seed %d: s1 lost %g Flow-MODs: %g retries, %g installs of %g attempts, %g failures; want %g retries, every rule installed",
				seed, lost, retries, installs, attempts, failures, lost)
		}
		return
	}
	t.Fatal("no Flow-MOD lost on s1 in 20 seeds at 30 % drop")
}

// TestModemSweepMetricsDump: `-sweep modem -metrics` appends a valid
// dump carrying the controller's decode histogram and the modem
// receiver's frame counter.
func TestModemSweepMetricsDump(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sweep", "modem", "-grid", "0.05", "-metrics"}, &out); err != nil {
		t.Fatal(err)
	}
	_, text, ok := strings.Cut(out.String(), "\n\n")
	if !ok {
		t.Fatalf("no metrics dump after the table:\n%s", out.String())
	}
	if err := telemetry.ValidateText(strings.NewReader(text)); err != nil {
		t.Fatalf("metrics dump does not parse: %v\n%s", err, text)
	}
	if v := sampleValue(t, text, `mdn_controller_decode_seconds_count`); v == 0 {
		t.Error("decode-latency histogram recorded no windows")
	}
	if v := sampleValue(t, text, `mdn_modem_frames_rx\{channel="s1"\}`); v == 0 {
		t.Error("modem receiver delivered no frames")
	}
}

// TestRunRejectsFlagsOutsideMode: a flag the selected mode does not
// read is an error, not silently ignored.
func TestRunRejectsFlagsOutsideMode(t *testing.T) {
	for _, args := range [][]string{
		{"-sweep", "traffic", "-stream"},
		{"-sweep", "traffic", "-stream", "-hop", "0.05"},
		{"-sweep", "modem", "-duration", "5"},
		{"-sweep", "chaos", "-f", "scenarios/loadpath.json"},
		{"-f", "scenarios/loadpath.json", "-grid", "0.1"},
		{"-f", "scenarios/loadpath.json", "-duration", "5"},
		{"-f", "scenarios/loadpath.json", "-seed", "3"},
		{"-sweep", "nonsense"},
		{"-sweep", "chaos", "-hop", "0.05"},
		{"-sweep", "chaos", "-grid", "0,x"},
		{"-sweep", "traffic", "-grid", "1.5"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("mdnsim %s: accepted", strings.Join(args, " "))
		}
	}
}

// sampleValue extracts one sample's value from a Prometheus text dump.
// namePattern is a regexp matching the full series name including any
// labels.
func sampleValue(t *testing.T, text, namePattern string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + namePattern + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("series %s missing from dump:\n%s", namePattern, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("series %s value %q: %v", namePattern, m[1], err)
	}
	return v
}
