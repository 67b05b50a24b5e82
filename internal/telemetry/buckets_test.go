package telemetry

import (
	"strings"
	"testing"
)

// TestStreamLatencyBucketsResolveBimodalLoad feeds the streaming
// latency histogram a synthetic bimodal distribution — a fast mode
// (~2 ms, the common case: one hop plus propagation) and a rare slow
// mode (~80 ms, a stalled pipeline) — and requires the log-spaced
// sub-millisecond bucket ladder to keep p50 and p99 in different
// buckets. The coarse DefaultLatencyBuckets would smear both modes
// into neighbouring decades; this is the regression gate on the
// bucket layout itself.
func TestStreamLatencyBucketsResolveBimodalLoad(t *testing.T) {
	r := New()
	h := r.Histogram("mdn_stream_detect_latency_seconds", StreamLatencyBuckets)
	for i := 0; i < 970; i++ {
		h.Observe(0.0017) // fast mode
	}
	for i := 0; i < 30; i++ {
		h.Observe(0.080) // slow tail
	}
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if p50 > 0.002 {
		t.Errorf("p50 = %gs, want <= 2ms (fast-mode bucket)", p50)
	}
	if p99 < 0.05 || p99 > 0.2 {
		t.Errorf("p99 = %gs, want in the slow mode's bucket (0.05, 0.2]", p99)
	}
	if p50 >= p99 {
		t.Errorf("p50 %g >= p99 %g: buckets cannot separate the modes", p50, p99)
	}

	// The dump with the new bucket ladder must stay valid Prometheus
	// text exposition.
	text := dump(t, r)
	if err := ValidateText(strings.NewReader(text)); err != nil {
		t.Fatalf("stream-bucket dump does not validate: %v\n%s", err, text)
	}
	for _, want := range []string{
		`mdn_stream_detect_latency_seconds_bucket{le="0.002"} 970`,
		`mdn_stream_detect_latency_seconds_bucket{le="0.1"} 1000`,
		"mdn_stream_detect_latency_seconds_count 1000",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("dump missing %q:\n%s", want, text)
		}
	}
}

// TestStreamLatencyBucketsAreSorted guards the ladder's invariant:
// strictly increasing bounds, spanning microseconds to seconds.
func TestStreamLatencyBucketsAreSorted(t *testing.T) {
	for i := 1; i < len(StreamLatencyBuckets); i++ {
		if StreamLatencyBuckets[i] <= StreamLatencyBuckets[i-1] {
			t.Fatalf("buckets not strictly increasing at %d: %v", i, StreamLatencyBuckets)
		}
	}
	if StreamLatencyBuckets[0] > 1e-6 {
		t.Errorf("first bucket %g too coarse for sub-hop latencies", StreamLatencyBuckets[0])
	}
	if last := StreamLatencyBuckets[len(StreamLatencyBuckets)-1]; last < 1 {
		t.Errorf("last bucket %g does not cover stall-scale latencies", last)
	}
}
