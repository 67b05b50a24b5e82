package experiments

import (
	"mdn/internal/core"
	"mdn/internal/scenario"
)

// Fig5ab reproduces Figure 5a-b: music-defined load balancing, on the
// shipped scenarios/loadbalance.json rhombus. The source ramps its
// rate over the single (upper) path; the switch plays queue tones
// every 300 ms; when the controller hears the congested tone it
// installs a Flow-MOD splitting traffic across both paths, and the
// queue drains back below the high watermark.
func Fig5ab() *Result {
	r := &Result{ID: "fig5ab", Title: "Music-defined load balancing on the rhombus"}
	w, _ := world("loadbalance.json", nil)
	b := w.Apps[0].(scenario.Balancer)
	qm, lb := b.QueueMonitor, b.LoadBalancer
	runWorld(w)

	var preMax, postMax float64
	for _, s := range qm.QueueSeries {
		if !lb.Triggered || s.Time <= lb.TriggeredAt {
			if s.Value > preMax {
				preMax = s.Value
			}
		} else if s.Time > lb.TriggeredAt+2 {
			if s.Value > postMax {
				postMax = s.Value
			}
		}
	}
	s2, s3 := w.Switches["s2"], w.Switches["s3"]
	r.row("congestion tone triggers a Flow-MOD", "split installed when 700 Hz heard",
		lb.Triggered, "triggered=%v at t=%.2f s", lb.Triggered, lb.TriggeredAt)
	r.row("queue exceeded high watermark before the split", "> 75 packets", preMax > 75,
		"max %d packets", int(preMax))
	r.row("queue stabilises below watermark after the split", "queue drains", postMax <= 75,
		"max %d packets (t > trigger+2s)", int(postMax))
	r.row("lower path carries traffic after the split", "traffic balanced across two routes",
		s3.RxPackets > 0, "%d packets via s3, %d via s2", s3.RxPackets, s2.RxPackets)

	r.Series = append(r.Series, queueSeries("s1 upper-path queue length (packets)", qm),
		heardTones("controller-heard queue tones (Hz)", qm))
	return r
}

// Fig5cd reproduces Figure 5c-d: queue-size monitoring, on the shipped
// scenarios/loadpath.json bottleneck. Traffic ramps through a single
// switch and stops; the switch plays its low/mid/high tone by
// occupancy every 300 ms and the controller's decoded levels track
// the tc-measured queue, returning to the low tone after the drain.
func Fig5cd() *Result {
	r := &Result{ID: "fig5cd", Title: "Queue-size monitoring (500/600/700 Hz)"}
	w, c := world("loadpath.json", nil)
	qm := w.Apps[0].(*core.QueueMonitor)
	// Figure 5d's raw material: the low→mid→high→…→low staircase at
	// the controller microphone.
	staircase := recordAudio(w, 0, c.DurationS)
	runWorld(w)

	levels := qm.HeardLevels()
	sawHigh := false
	for _, l := range levels {
		if l == core.LevelHigh {
			sawHigh = true
		}
	}
	r.row("levels start low (500 Hz)", "500 Hz before traffic",
		len(levels) > 0 && levels[0] == core.LevelLow, "first level %s", levelNameOrNone(levels, 0))
	r.row("monitor reaches the congested tone", "700 Hz when > 75 packets", sawHigh,
		"level sequence %v", levels)
	r.row("monitor returns to 500 Hz after drain", "low tone after all traffic sent",
		len(levels) > 0 && levels[len(levels)-1] == core.LevelLow,
		"last level %s", levelNameOrNone(levels, len(levels)-1))

	// Decoded levels must agree with the switch-side truth at tone
	// times.
	agree, total := 0, 0
	for _, h := range qm.Heard {
		truth := -1
		for _, tl := range qm.ToneLog {
			if tl.Time <= h.Time+0.05 {
				truth = tl.Level
			}
		}
		if truth >= 0 {
			total++
			if truth == h.Level {
				agree++
			}
		}
	}
	acc := 0.0
	if total > 0 {
		acc = float64(agree) / float64(total)
	}
	r.row("decoded levels match tc-measured occupancy", "controller knows the queue range",
		acc >= 0.9, "%.0f%% agreement over %d tones", acc*100, total)

	r.Series = append(r.Series, queueSeries("queue length (packets)", qm), heardTones("heard tones (Hz)", qm))
	r.attachAudio("queue tones at the controller microphone", staircase)
	return r
}

// queueSeries plots a monitor's switch-side occupancy samples.
func queueSeries(name string, qm *core.QueueMonitor) Series {
	s := Series{Name: name}
	for _, q := range qm.QueueSeries {
		s.X, s.Y = append(s.X, q.Time), append(s.Y, q.Value)
	}
	return s
}

// heardTones plots the tone of each level the controller decoded.
func heardTones(name string, qm *core.QueueMonitor) Series {
	s := Series{Name: name}
	tones := qm.Frequencies()
	for _, h := range qm.Heard {
		s.X, s.Y = append(s.X, h.Time), append(s.Y, tones[h.Level])
	}
	return s
}

func levelNameOrNone(levels []int, i int) string {
	if i < 0 || i >= len(levels) {
		return "none"
	}
	return core.LevelName(levels[i])
}
