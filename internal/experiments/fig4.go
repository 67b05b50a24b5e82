package experiments

import (
	"mdn/internal/core"
	"mdn/internal/netsim"
	"mdn/internal/scenario"
)

// withSong returns a config edit that adds the Figure 4b/4d background
// when noisy, a deterministic pop song 2.1 m from the controller
// microphone, and notes it on r; nil when quiet.
func withSong(r *Result, noisy bool) func(*scenario.Config) {
	if !noisy {
		return nil
	}
	r.note("background: deterministic pop-song interference at conversation level")
	return func(c *scenario.Config) {
		c.Noise = append(c.Noise, scenario.NoiseConfig{Type: "song", Level: 0.02, X: -1.5, Y: 1.5})
	}
}

// heavyHitterExperiment runs scenarios/heavyhitter.json: an elephant
// flow and four mice in other buckets, heard through a detection floor
// calibrated above the song's partials and below the switch tones.
func heavyHitterExperiment(id, title string, noisy bool) *Result {
	r := &Result{ID: id, Title: title}
	w, c := world("heavyhitter.json", withSong(r, noisy))
	hh := w.Apps[0].(*core.HeavyHitter)
	h1, h2 := w.Hosts["h1"], w.Hosts["h2"]
	el := c.Traffic[0]
	eBucket := hh.BucketOf(netsim.FiveTuple{
		Src: h1.Addr, Dst: h2.Addr, SrcPort: el.SrcPort, DstPort: el.DstPort, Proto: netsim.ProtoTCP,
	})
	runWorld(w)

	flagged := hh.FlaggedBuckets()
	onlyElephant := len(flagged) == 1 && flagged[0] == eBucket
	r.row("elephant flow flagged", "tone count crosses threshold", containsInt(flagged, eBucket),
		"bucket %d flagged in %d intervals", eBucket, len(hh.Reports))
	r.row("mice stay below threshold", "no false positives", onlyElephant,
		"flagged buckets: %v", flagged)

	// Series: per-interval counts of the elephant bucket vs the
	// loudest mouse bucket.
	var xs, ye, ym []float64
	for _, s := range hh.History {
		xs = append(xs, s.Time)
		ye = append(ye, float64(s.Counts[eBucket]))
		maxMouse := 0
		for b, c := range s.Counts {
			if b != eBucket && c > maxMouse {
				maxMouse = c
			}
		}
		ym = append(ym, float64(maxMouse))
	}
	r.addSeries("elephant bucket tone count per interval", xs, ye)
	r.addSeries("loudest mouse bucket tone count per interval", xs, ym)
	return r
}

// Fig4a reproduces Figure 4a: heavy-hitter detection in a quiet room.
func Fig4a() *Result {
	return heavyHitterExperiment("fig4a", "Heavy-hitter detection (quiet)", false)
}

// Fig4b reproduces Figure 4b: the same detection while a pop song
// plays as background noise.
func Fig4b() *Result {
	return heavyHitterExperiment("fig4b", "Heavy-hitter detection under pop-song noise", true)
}

// portScanExperiment runs scenarios/portscan.json: one sequential
// scan of the ports the app watches, a probe every 200 ms.
func portScanExperiment(id, title string, noisy bool) *Result {
	r := &Result{ID: id, Title: title}
	w, c := world("portscan.json", withSong(r, noisy))
	ps := w.Apps[0].(*core.PortScan)
	scan := c.Traffic[0]
	end := scan.StartS + float64(scan.NumPorts)*scan.IntervalMs/1000
	// Figure 4c/4d's raw material: the sweep at the controller
	// microphone (the mel view shows the scan as a rising line).
	sweep := recordAudio(w, scan.StartS, end+0.3)
	runWorld(w)

	r.row("scan raises an alert", "scan identified", len(ps.Alerts) > 0,
		"%d alerts, first covering %d distinct ports", len(ps.Alerts), firstAlertPorts(ps))
	r.row("sweep visible as a monotone frequency line", "clear log-line on mel spectrogram",
		ps.SweepIsMonotone(), "monotone=%v over %d onsets", ps.SweepIsMonotone(), len(ps.Sweep))
	coverage := float64(len(ps.Sweep)) / float64(scan.NumPorts)
	r.row("probe coverage", "every scanned port heard", coverage >= 0.85,
		"%.0f%% of %d probes", coverage*100, scan.NumPorts)

	var xs, ys []float64
	for _, d := range ps.Sweep {
		xs = append(xs, d.Time)
		ys = append(ys, d.Frequency)
	}
	r.addSeries("heard port-tone sweep (Hz over time)", xs, ys)
	r.attachAudio("port-scan sweep at the controller microphone", sweep)
	return r
}

func firstAlertPorts(ps *core.PortScan) int {
	if len(ps.Alerts) == 0 {
		return 0
	}
	return ps.Alerts[0].DistinctPorts
}

// Fig4c reproduces Figure 4c: port-scan detection in a quiet room.
func Fig4c() *Result {
	return portScanExperiment("fig4c", "Port-scan detection (quiet)", false)
}

// Fig4d reproduces Figure 4d: the same scan under pop-song noise.
func Fig4d() *Result {
	return portScanExperiment("fig4d", "Port-scan detection under pop-song noise", true)
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
