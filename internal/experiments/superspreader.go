package experiments

import (
	"mdn/internal/core"
	"mdn/internal/scenario"
)

// ExtSuperspreader runs the Section 5 open problem end to end, on the
// shipped scenarios/superspreader.json and scenarios/ddos.json: a
// worm-like host contacting many destinations is flagged, the same
// host talking to two peers is not, and the DDoS-victim mode flags a
// host hammered by many sources.
func ExtSuperspreader() *Result {
	r := &Result{ID: "ext-superspreader", Title: "k-superspreader and DDoS-victim detection (Section 5 open problem)"}
	spread := func(name string, edit func(*scenario.Config)) *core.SpreadDetector {
		w, _ := world(name, edit)
		runWorld(w)
		return w.Apps[0].(*core.SpreadDetector)
	}

	// Scenario 1: superspreader.
	sd := spread("superspreader.json", nil)
	r.row("worm-like fan-out flagged as k-superspreader", "distinct destination tones exceed k",
		len(sd.Alerts) > 0, "%d alerts; first with %d distinct buckets (k=%d)",
		len(sd.Alerts), firstSpreadDistinct(sd), sd.K)

	// Scenario 2: the same suspect and detector, talking to two peers.
	sd2 := spread("superspreader.json", func(c *scenario.Config) { c.Traffic = c.Traffic[:2] })
	r.row("two-peer client not flagged", "no false positive", len(sd2.Alerts) == 0,
		"%d alerts", len(sd2.Alerts))

	// Scenario 3: DDoS victim.
	sd3 := spread("ddos.json", nil)
	r.row("many-source flood flagged as DDoS victim", "distinct source tones exceed k",
		len(sd3.Alerts) > 0, "%d alerts; first with %d distinct buckets",
		len(sd3.Alerts), firstSpreadDistinct(sd3))

	var xs, ys []float64
	for _, s := range sd.History {
		xs = append(xs, s.Time)
		ys = append(ys, s.Value)
	}
	r.addSeries("superspreader: distinct destination buckets per interval", xs, ys)
	return r
}

func firstSpreadDistinct(sd *core.SpreadDetector) int {
	if len(sd.Alerts) == 0 {
		return 0
	}
	return sd.Alerts[0].Distinct
}
