package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time copy of a registry, embeddable in JSON
// reports next to the controller's Health snapshot.
type Snapshot struct {
	// Metrics lists every metric in registration order.
	Metrics []MetricSnapshot `json:"metrics"`
}

// MetricSnapshot is one metric's captured state.
type MetricSnapshot struct {
	// Name is the registered name, including any label suffix.
	Name string `json:"name"`
	// Kind is "counter", "gauge" or "histogram".
	Kind string `json:"kind"`
	// Value carries counter and gauge readings.
	Value float64 `json:"value,omitempty"`
	// Count and Sum carry histogram totals; Buckets the cumulative
	// per-bucket counts for the finite bounds (the +Inf bucket is
	// implied by Count).
	Count   uint64        `json:"count,omitempty"`
	Sum     float64       `json:"sum,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one cumulative histogram bucket.
type BucketCount struct {
	// LE is the bucket's inclusive upper bound.
	LE float64 `json:"le"`
	// Count is the cumulative observation count at or below LE.
	Count uint64 `json:"count"`
}

// WriteText renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): one TYPE comment per metric, histograms
// expanded into _bucket/_sum/_count series with le labels merged into
// any existing label set.
func (s Snapshot) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, m := range s.Metrics {
		base, labels := splitName(m.Name)
		switch m.Kind {
		case "histogram":
			fmt.Fprintf(bw, "# TYPE %s histogram\n", base)
			for _, b := range m.Buckets {
				fmt.Fprintf(bw, "%s %d\n", seriesName(base+"_bucket", labels, "le", formatFloat(b.LE)), b.Count)
			}
			fmt.Fprintf(bw, "%s %d\n", seriesName(base+"_bucket", labels, "le", "+Inf"), m.Count)
			fmt.Fprintf(bw, "%s %s\n", seriesName(base+"_sum", labels, "", ""), formatFloat(m.Sum))
			fmt.Fprintf(bw, "%s %d\n", seriesName(base+"_count", labels, "", ""), m.Count)
		default:
			fmt.Fprintf(bw, "# TYPE %s %s\n", base, m.Kind)
			fmt.Fprintf(bw, "%s %s\n", m.Name, formatFloat(m.Value))
		}
	}
	return bw.Flush()
}

// splitName separates "name{a="b"}" into name and `a="b"` (labels
// without braces, empty when absent).
func splitName(full string) (base, labels string) {
	if i := strings.IndexByte(full, '{'); i >= 0 && strings.HasSuffix(full, "}") {
		return full[:i], full[i+1 : len(full)-1]
	}
	return full, ""
}

// seriesName joins a base name, existing labels, and one optional
// extra label into a series name.
func seriesName(base, labels, extraKey, extraVal string) string {
	if extraKey != "" {
		extra := extraKey + `="` + extraVal + `"`
		if labels == "" {
			labels = extra
		} else {
			labels += "," + extra
		}
	}
	if labels == "" {
		return base
	}
	return base + "{" + labels + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ValidateText checks that r is a well-formed Prometheus text dump:
// every line is a comment or a `name[{labels}] value` sample with a
// legal metric name and a parseable value. It is the assertion behind
// the CI metrics-dump smoke check.
func ValidateText(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	samples := 0
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), " \t")
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if err := validateSample(text); err != nil {
			return fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("telemetry: reading dump: %w", err)
	}
	if samples == 0 {
		return fmt.Errorf("telemetry: dump contains no samples")
	}
	return nil
}

func validateSample(text string) error {
	sp := strings.LastIndexByte(text, ' ')
	if sp <= 0 {
		return fmt.Errorf("no value separator in %q", text)
	}
	series, value := text[:sp], text[sp+1:]
	if _, err := strconv.ParseFloat(value, 64); err != nil {
		return fmt.Errorf("bad value %q: %v", value, err)
	}
	name := series
	if i := strings.IndexByte(series, '{'); i >= 0 {
		if !strings.HasSuffix(series, "}") {
			return fmt.Errorf("unterminated label set in %q", series)
		}
		name = series[:i]
	}
	if name == "" {
		return fmt.Errorf("empty metric name in %q", text)
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("bad metric name %q", name)
		}
	}
	return nil
}
