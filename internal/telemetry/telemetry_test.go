package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// dump renders the registry in the Prometheus text format.
func dump(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("mdn_test_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("mdn_test_total"); again != c {
		t.Error("re-registration did not return the same counter")
	}
	g := r.Gauge("mdn_test_gauge")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %g, want 1.5", g.Value())
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", DefaultLatencyBuckets)
	r.Func("x", func() float64 { return 1 })
	c.Inc()
	g.Set(1)
	h.Observe(1)
	sp := StartSpan(h, nil)
	if d := sp.End(); d != 0 {
		t.Errorf("inert span returned %g", d)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil metrics mutated state")
	}
	if snap := r.Snapshot(); len(snap.Metrics) != 0 {
		t.Error("nil registry produced metrics")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("gauge re-registration of a counter name did not panic")
		}
	}()
	r.Gauge("m")
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := New()
	h := r.Histogram("mdn_lat_seconds", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.001, 0.002, 0.05, 0.5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-0.5535) > 1e-12 {
		t.Errorf("sum = %g", got)
	}
	snap := r.Snapshot()
	if len(snap.Metrics) != 1 || snap.Metrics[0].Name != "mdn_lat_seconds" {
		t.Fatalf("snapshot = %+v, want the one histogram", snap.Metrics)
	}
	m := snap.Metrics[0]
	want := []uint64{2, 3, 4} // cumulative; 0.001 is inclusive
	for i, b := range m.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket %g = %d, want %d", b.LE, b.Count, want[i])
		}
	}
	if q := h.Quantile(0.5); q != 0.01 {
		t.Errorf("p50 = %g, want 0.01", q)
	}
	if q := h.Quantile(1); !math.IsInf(q, 1) {
		t.Errorf("p100 = %g, want +Inf", q)
	}
}

func TestSpanObservesElapsed(t *testing.T) {
	r := New()
	h := r.Histogram("mdn_span_seconds", []float64{1, 10})
	clock := &StepClock{Step: 2} // Now(): 2, 4 -> elapsed 2
	sp := StartSpan(h, clock)
	if d := sp.End(); d != 2 {
		t.Errorf("elapsed = %g, want 2", d)
	}
	if h.Count() != 1 {
		t.Error("span did not observe")
	}
}

func TestFuncGaugesSum(t *testing.T) {
	r := New()
	r.Func("mdn_wire_sent_total", func() float64 { return 3 })
	r.Func("mdn_wire_sent_total", func() float64 { return 4 })
	m := r.Snapshot().Metrics[0]
	if m.Name != "mdn_wire_sent_total" || m.Value != 7 {
		t.Errorf("func gauge = %+v, want 7", m)
	}
	if m.Kind != "gauge" {
		t.Errorf("func kind = %q", m.Kind)
	}
}

func TestLabelEscaping(t *testing.T) {
	got := Label("mdn_dispatch_seconds", "subscriber", `*core.HeavyHitter "x"`)
	want := `mdn_dispatch_seconds{subscriber="*core.HeavyHitter \"x\""}`
	if got != want {
		t.Errorf("Label = %s", got)
	}
}

func TestTextDumpValidates(t *testing.T) {
	r := New()
	r.Counter(Label("mdn_flow_retries_total", "switch", "s1")).Add(3)
	r.Gauge("mdn_controller_subscribers").Set(4)
	r.Func("mdn_voice_emitted_total", func() float64 { return 12 })
	h := r.Histogram(Label("mdn_dispatch_seconds", "subscriber", "canary"), []float64{0.001, 0.1})
	h.Observe(0.0004)
	h.Observe(5)

	text := dump(t, r)
	if err := ValidateText(strings.NewReader(text)); err != nil {
		t.Fatalf("dump does not validate: %v\n%s", err, text)
	}
	for _, want := range []string{
		`mdn_flow_retries_total{switch="s1"} 3`,
		"# TYPE mdn_dispatch_seconds histogram",
		`mdn_dispatch_seconds_bucket{subscriber="canary",le="0.001"} 1`,
		`mdn_dispatch_seconds_bucket{subscriber="canary",le="+Inf"} 2`,
		`mdn_dispatch_seconds_count{subscriber="canary"} 2`,
		"mdn_voice_emitted_total 12",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("dump missing %q:\n%s", want, text)
		}
	}
}

func TestValidateTextRejectsGarbage(t *testing.T) {
	bad := []string{
		"",                  // no samples at all
		"not a metric",      // unparseable value
		"1bad_name 3",       // name starts with a digit
		"name{le=\"x\" 3",   // unterminated labels
		"mdn_ok 1\nbroken",  // good line then bad line
		"mdn_ok one_point2", // non-numeric value
	}
	for _, in := range bad {
		if err := ValidateText(strings.NewReader(in)); err == nil {
			t.Errorf("ValidateText(%q) accepted", in)
		}
	}
	if err := ValidateText(strings.NewReader("# just a comment\nmdn_ok 1")); err != nil {
		t.Errorf("valid dump rejected: %v", err)
	}
}

func TestSnapshotJSONRoundTrips(t *testing.T) {
	r := New()
	r.Counter("mdn_a_total").Inc()
	r.Histogram("mdn_b_seconds", []float64{1}).Observe(0.5)
	blob, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Metrics) != 2 || back.Metrics[1].Count != 1 {
		t.Errorf("round trip = %+v", back)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := New()
	c := r.Counter("mdn_c_total")
	g := r.Gauge("mdn_g")
	h := r.Histogram("mdn_h_seconds", DefaultLatencyBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 8000 || h.Count() != 8000 {
		t.Errorf("c=%d g=%g h=%d, want 8000 each", c.Value(), g.Value(), h.Count())
	}
	if math.Abs(h.Sum()-8) > 1e-9 {
		t.Errorf("sum = %g, want 8", h.Sum())
	}
}
