// Acoustic flow-table sync: a primary controller replicates its flow
// table to a standby switch over the acoustic data channel — the
// rules are marshalled to OpenFlow wire format, framed by the FSK
// modem with Reed-Solomon protection, played through the room as
// tones, demodulated from the standby controller's microphone, and
// installed on the standby switch. A seeded corruptor flips symbols
// in flight; the FEC repairs them, and the frame CRC vouches for the
// reassembled bytes before any rule is applied.
//
//	go run ./examples/acoustic-sync
package main

import (
	"fmt"

	"mdn"
	"mdn/internal/modem"
	"mdn/internal/netsim"
	"mdn/internal/openflow"
)

func main() {
	// The primary switch, 2 m from the controller's microphone,
	// carries the authoritative flow table; the standby switch, beside
	// the microphone it listens with, starts empty. The world has no
	// apps: the modem below is its only user. It runs 7.5 s, past the
	// end of the one frame sent at 0.5 s.
	w, err := mdn.Build(&mdn.Config{
		Name: "acoustic-sync", Seed: 99, DurationS: 7.5,
		Switches: []mdn.SwitchConfig{{Name: "primary", X: 2}, {Name: "standby", X: 0.5}},
	})
	if err != nil {
		panic(err)
	}
	primary, standby := w.Switches["primary"], w.Switches["standby"]

	table := []openflow.FlowMod{
		{Command: openflow.FlowAdd, Priority: 10,
			Match:  netsim.Match{Dst: netsim.MustAddr("10.0.0.2"), Proto: 6},
			Action: netsim.Output(2)},
		{Command: openflow.FlowAdd, Priority: 10,
			Match:  netsim.Match{Dst: netsim.MustAddr("10.0.0.3"), Proto: 6},
			Action: netsim.Output(3)},
		{Command: openflow.FlowAdd, Priority: 5,
			Match:  netsim.Match{DstPort: 80},
			Action: netsim.HashSplit(2, 3), IdleTimeout: 30},
		{Command: openflow.FlowAdd, Priority: 1,
			Match:  netsim.Match{},
			Action: netsim.Drop()},
	}
	for _, m := range table {
		m.Apply(primary)
	}

	// Marshal the table into one modem payload.
	var payload []byte
	for _, m := range table {
		b, err := openflow.MarshalFlowMod(m)
		if err != nil {
			panic(err)
		}
		payload = append(payload, b...)
	}
	fmt.Printf("primary flow table: %d rules, %d bytes marshalled\n",
		len(table), len(payload))

	// The data channel: Reed-Solomon coded FSK over the primary's
	// speaker, with a 3% symbol corruptor standing in for a noisy room.
	cfg := modem.DefaultConfig()
	fec, err := modem.FECByName("rs_p48")
	if err != nil {
		panic(err)
	}
	cfg.FEC = fec
	band, err := modem.NewBand(modem.Plan(cfg), "primary", cfg)
	if err != nil {
		panic(err)
	}
	tx := modem.NewTransmitter(w.Sim, band, w.Voice("primary"))
	tx.Corruptor = modem.NewCorruptor(0.03, 7)

	// The standby side listens on the controller microphone and
	// installs whatever survives the CRC.
	ctrl := w.Controller()
	ctrl.Detector.AddWatch(band.Frequencies()...)
	rx := modem.NewReceiver(band)
	rx.OnFrame(func(fr modem.Frame) {
		rest := fr.Payload
		installed := 0
		for len(rest) > 0 {
			msg, n, err := openflow.Unmarshal(rest)
			if err != nil {
				fmt.Printf("t=%.3fs  standby: undecodable rule: %v\n", fr.Time, err)
				return
			}
			rest = rest[n:]
			msg.(openflow.FlowMod).Apply(standby)
			installed++
		}
		fmt.Printf("t=%.3fs  standby installed %d rules from frame seq=%d\n",
			fr.Time, installed, fr.Seq)
	})
	ctrl.SubscribeWindows(rx.HandleWindow)

	if _, err := tx.Send(0.5, payload); err != nil {
		panic(err)
	}
	if _, err := w.Run(); err != nil {
		panic(err)
	}

	fmt.Printf("channel: %d symbols sent, %d corrupted in flight, %d repaired by FEC\n",
		tx.SymbolsTx, tx.SymbolsCorrupted, rx.FECCorrected)
	if got, want := len(standby.Rules()), len(primary.Rules()); got == want {
		fmt.Printf("flow table synced over sound: %d of %d rules on standby\n", got, want)
	} else {
		fmt.Printf("sync incomplete: %d of %d rules on standby\n", got, want)
	}
}
