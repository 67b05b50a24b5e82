package main

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Verdicts of a base-versus-new comparison of one metric.
const (
	verdictImproved   = "improved"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
	verdictNoChange   = "no change shown"
	verdictIdentical  = "identical"
)

// comparison is one metric on one workload across two sets of runs.
type comparison struct {
	baseQ1, baseMed, baseQ3 float64
	newQ1, newMed, newQ3    float64
	// change is the relative change of the median, positive when worse.
	change  float64
	verdict string
}

// compareMetric judges new runs against base runs: worse when the new
// median is worse by more than the metric's bound; improved when the
// new median is better by more than the base runs' own quartile spread
// and new runs win at least nine tenths of all (base, new) pairs, ties
// counting for neither; unresolved when either side spreads wider than
// the bound, unless every new run beats (or loses to) every base run.
// A per-layer metric has no bound: it is improved or worse by the
// spread-and-pairs rule alone, and otherwise shows no change.
func compareMetric(m metric, base, cur []float64) comparison {
	var c comparison
	c.baseQ1, c.baseMed, c.baseQ3 = quartiles(base)
	c.newQ1, c.newMed, c.newQ3 = quartiles(cur)
	better := m.beats
	scale := math.Abs(c.baseMed)
	if scale == 0 {
		scale = 1
	}
	c.change = (c.newMed - c.baseMed) / scale
	if m.better == "higher" {
		c.change = -c.change
	}
	spread := func(q1, med, q3 float64) float64 {
		if med == 0 {
			return 0
		}
		return (q3 - q1) / math.Abs(med)
	}
	wins, losses := 0, 0
	for _, b := range base {
		for _, n := range cur {
			switch {
			case better(n, b):
				wins++
			case better(b, n):
				losses++
			}
		}
	}
	pairs := len(base) * len(cur)
	beyondSpread := math.Abs(c.change)*scale > c.baseQ3-c.baseQ1
	if m.bound == 0 {
		switch {
		case beyondSpread && c.change < 0 && float64(wins) >= 0.9*float64(pairs):
			c.verdict = verdictImproved
		case beyondSpread && c.change > 0 && float64(losses) >= 0.9*float64(pairs):
			c.verdict = verdictWorse
		default:
			c.verdict = verdictNoChange
		}
		return c
	}
	switch {
	case spread(c.baseQ1, c.baseMed, c.baseQ3) > m.bound || spread(c.newQ1, c.newMed, c.newQ3) > m.bound:
		switch {
		case wins == pairs:
			c.verdict = verdictImproved
		case losses == pairs:
			c.verdict = verdictWorse
		default:
			c.verdict = verdictUnresolved
		}
	case c.change > m.bound:
		c.verdict = verdictWorse
	case beyondSpread && c.change < 0 && float64(wins) >= 0.9*float64(pairs):
		c.verdict = verdictImproved
	default:
		c.verdict = verdictWithin
	}
	return c
}

// pairKey identifies runs that simulate the same thing: one workload on
// one seed over one horizon.
type pairKey struct {
	seed    int64
	horizon float64
}

// pairedVerdict judges a simulated-time metric, which repeats exactly
// for a seed and horizon, seed against seed: it pairs each new run with
// the base run of the same seed and horizon, and any pair that differs
// is a change of behaviour — worse if any pair got worse, else improved.
// It reports false when no run pairs up.
func pairedVerdict(m metric, base, cur []record) (string, bool) {
	baseBy := make(map[pairKey]float64)
	for _, r := range base {
		if v, ok := r.Metrics[m.name]; ok {
			baseBy[pairKey{r.Seed, r.HorizonS}] = v
		}
	}
	paired, worse, improved := 0, 0, 0
	for _, r := range cur {
		v, ok := r.Metrics[m.name]
		b, okB := baseBy[pairKey{r.Seed, r.HorizonS}]
		if !ok || !okB {
			continue
		}
		paired++
		switch {
		case m.beats(v, b):
			improved++
		case m.beats(b, v):
			worse++
		}
	}
	switch {
	case paired == 0:
		return "", false
	case worse > 0:
		return verdictWorse, true
	case improved > 0:
		return verdictImproved, true
	}
	return verdictIdentical, true
}

// loadSide reads one side of a comparison: FILE, or FILE#LABEL to keep
// only the results recorded with that label.
func loadSide(spec string) ([]record, error) {
	path, label, _ := strings.Cut(spec, "#")
	recs, err := readRecords(path)
	if err != nil {
		return nil, err
	}
	var out []record
	for _, r := range recs {
		if label == "" || r.Label == label {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", spec)
	}
	return out, nil
}

// compareFiles prints, per workload and metric, both sides' median and
// quartiles and the verdict. It exits 1 when an end-to-end metric is
// worse.
func compareFiles(baseSpec, newSpec string, stdout, stderr io.Writer) int {
	base, err := loadSide(baseSpec)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	cur, err := loadSide(newSpec)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	return printComparison(base, cur, stdout)
}

func printComparison(base, cur []record, stdout io.Writer) int {
	values := func(recs []record, name string) []float64 {
		var out []float64
		for _, r := range recs {
			if v, ok := r.Metrics[name]; ok {
				out = append(out, v)
			}
		}
		return out
	}
	of := func(recs []record, workload string) []record {
		var out []record
		for _, r := range recs {
			if r.Workload == workload {
				out = append(out, r)
			}
		}
		return out
	}
	worse := false
	for _, wl := range workloads {
		wb, wn := of(base, wl.name), of(cur, wl.name)
		if len(wb) == 0 || len(wn) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "== %s: %d base runs, %d new runs (median [q1 q3])\n", wl.name, len(wb), len(wn))
		fmt.Fprintf(stdout, "  %-30s %-34s %-34s %8s %6s  %s\n", "metric", "base", "new", "change", "bound", "verdict")
		for _, m := range append(append([]metric(nil), e2eMetrics...), layerMetrics...) {
			b, n := values(wb, m.name), values(wn, m.name)
			if len(b) == 0 || len(n) == 0 || allZero(b) && allZero(n) {
				continue
			}
			c := compareMetric(m, b, n)
			if m.sim {
				if v, ok := pairedVerdict(m, wb, wn); ok {
					c.verdict = v
				}
			}
			worse = worse || c.verdict == verdictWorse && m.bound > 0
			bound := "-"
			if m.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*m.bound)
			}
			fmt.Fprintf(stdout, "  %-30s %-34s %-34s %+7.2f%% %6s  %s\n", m.name,
				fmt.Sprintf("%.5g [%.5g %.5g] %s", c.baseMed, c.baseQ1, c.baseQ3, m.unit),
				fmt.Sprintf("%.5g [%.5g %.5g] %s", c.newMed, c.newQ1, c.newQ3, m.unit),
				100*c.change, bound, c.verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}

func allZero(xs []float64) bool {
	for _, x := range xs {
		if x != 0 {
			return false
		}
	}
	return true
}
