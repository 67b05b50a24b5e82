// DDoS and superspreader detection over sound — the open problem at
// the end of the paper's Section 5, implemented. The switch maps the
// counterpart address of packets touching a watched host onto a
// frequency bank; a worm-like fan-out or a many-source flood sounds
// like many distinct tones per interval. In the shipped scenario three
// clients talk to the server from 0.5 s and three more join at 3 s.
//
//	go run ./examples/ddos
package main

import (
	"fmt"
	"strings"

	"mdn"
	"mdn/internal/core"
)

func main() {
	cfg, err := mdn.Load("ddos.json")
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

	sd := w.Apps[0].(*core.SpreadDetector)
	fmt.Printf("watched host: %s (%s mode, k=%d)\n\n", sd.Watched, sd.Mode, sd.K)
	fmt.Println("distinct source buckets heard per 1 s interval:")
	for _, s := range sd.History {
		fmt.Printf("  t=%4.1fs  %2.0f  %s\n", s.Time, s.Value, strings.Repeat("#", int(s.Value)))
	}
	fmt.Println()
	for _, a := range sd.Alerts {
		fmt.Printf("t=%4.1fs  DDOS ALERT: %d distinct sources (> k=%d) contacting %s\n",
			a.Time, a.Distinct, sd.K, sd.Watched)
	}
	if len(sd.Alerts) == 0 {
		fmt.Println("no alerts (unexpected)")
	}
}
