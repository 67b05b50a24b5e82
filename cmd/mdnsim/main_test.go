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
// Prometheus text and carries a nonzero decode-latency histogram and
// nonzero openflow retry counters.
func TestChaosMetricsDumpParses(t *testing.T) {
	reg := telemetry.New()
	_, err := scenario.RunChaos(scenario.ChaosConfig{
		Seed:      7,
		DropRates: []float64{0.3},
		DurationS: 8,
		Scenarios: []string{"portknock", "loadbalance"},
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
		t.Fatalf("metrics dump does not parse: %v\n%s", err, text)
	}
	if v := sampleValue(t, text, `mdn_controller_decode_seconds_count`); v == 0 {
		t.Error("decode-latency histogram recorded no windows")
	}
	if v := sampleValue(t, text, `mdn_flow_retries_total\{switch="s1"\}`); v == 0 {
		t.Error("no flow-programming retries recorded under 30% drop")
	}
	if v := sampleValue(t, text, `mdn_controller_handler_panics_total`); v == 0 {
		t.Error("canary panics missing from the dump")
	}
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
