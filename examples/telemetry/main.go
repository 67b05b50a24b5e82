// Music-defined telemetry (paper Section 5): one switch runs both
// telemetry applications at once on disjoint frequency sets — the
// heavy-hitter detector hears an elephant flow cross its tone-count
// threshold, and the port-scan detector hears a probe sweep as a
// rising frequency line — while a pop song plays in the room.
//
//	go run ./examples/telemetry
package main

import (
	"fmt"

	"mdn"
	"mdn/internal/core"
	"mdn/internal/netsim"
)

func main() {
	// The file sets the detection floor (min_amplitude 0.008) above the
	// song's partials but below the switch tones (~0.009 at the
	// microphone); at the default floor, partials near 1360-1520 Hz are
	// heard as probes of ports 8000-8002.
	cfg, err := mdn.Load("telemetry.json")
	if err != nil {
		panic(err)
	}
	w, err := mdn.Build(cfg)
	if err != nil {
		panic(err)
	}
	if _, err := w.Run(); err != nil {
		panic(err)
	}

	hh, ps := w.Apps[0].(*core.HeavyHitter), w.Apps[1].(*core.PortScan)
	elephant := netsim.FiveTuple{Src: w.Hosts["h1"].Addr, Dst: w.Hosts["h2"].Addr,
		SrcPort: 5000, DstPort: 80, Proto: netsim.ProtoTCP}
	fmt.Printf("heavy hitters: elephant hashes to bucket %d\n", hh.BucketOf(elephant))
	for _, rep := range hh.Reports {
		fmt.Printf("  t=%4.1fs  bucket %2d flagged (%d tone onsets >= threshold %d)\n",
			rep.Time, rep.Bucket, rep.Count, hh.Threshold)
	}
	fmt.Printf("\nport scan: %d probe tones heard, sweep monotone=%v\n",
		len(ps.Sweep), ps.SweepIsMonotone())
	for _, a := range ps.Alerts {
		fmt.Printf("  t=%4.1fs  SCAN ALERT: %d distinct ports probed (threshold %d)\n",
			a.Time, a.DistinctPorts, ps.Threshold)
	}
}
