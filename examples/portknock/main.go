// Port knocking over sound (paper Section 4): h1's TCP traffic to
// h2's port 8080 is dropped until the secret three-port knock sequence
// is heard — each knock packet makes the switch play a tone, and the
// MDN controller's finite state machine opens the port with a
// Flow-MOD only on the exact sequence. The shipped scenario knocks in
// order at 10 s; this example adds a wrong-order attempt at 1 s, which
// fails first.
//
//	go run ./examples/portknock
package main

import (
	"fmt"

	"mdn"
	"mdn/internal/core"
)

func main() {
	cfg, err := mdn.Load("portknock.json")
	if err != nil {
		panic(err)
	}
	// The wrong-order attempt: one knock packet each on 7002, 7001 and
	// 7003, half a second apart.
	for i, port := range []uint16{7002, 7001, 7003} {
		cfg.Traffic = append(cfg.Traffic, mdn.TrafficConfig{
			Type: "portscan", From: "h1", To: "h2", SrcPort: 40001,
			FirstPort: port, NumPorts: 1, StartS: 1 + float64(0.5*float64(i)),
		})
	}
	w, err := mdn.Build(cfg)
	if err != nil {
		panic(err)
	}
	pk := w.Apps[0].(*core.PortKnock)
	h2 := w.Hosts["h2"]
	w.Sim.Every(2, 2, func(now float64) {
		fmt.Printf("t=%5.2fs  delivered to h2: %6d bytes  (fsm state %s, opened=%v)\n",
			now, h2.RxBytes, pk.State(), pk.Opened)
	})
	if _, err := w.Run(); err != nil {
		panic(err)
	}

	fmt.Printf("\nport opened at t=%.2fs after the correct sequence; wrong knocks rejected: %d\n",
		pk.OpenedAt, pk.WrongKnocks)
	fmt.Printf("open rule installed at t=%.3fs\n", pk.InstalledAt)
}
