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
	"mdn/internal/netsim"
	"mdn/internal/openflow"
)

func main() {
	tb := mdn.NewTestbed(99)
	tb.EnableCulling()

	// The primary's switch carries the authoritative flow table; the
	// standby switch, 2 m across the room, starts empty.
	primary, voice := tb.AddVoicedSwitch("primary", 2, 0)
	standby := netsim.NewSwitch(tb.Sim, "standby")

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
	cfg := mdn.DefaultModemConfig()
	fec, err := mdn.ModemFECByName("rs_p48")
	if err != nil {
		panic(err)
	}
	cfg.FEC = fec
	band, err := mdn.NewModemBand(mdn.ModemPlan(cfg), "primary", cfg)
	if err != nil {
		panic(err)
	}
	tx := mdn.NewModemTransmitter(tb.Sim, band, voice)
	tx.Corruptor = mdn.NewModemCorruptor(0.03, 7)

	// The standby side listens on the controller microphone and
	// installs whatever survives the CRC.
	ctrl := tb.NewController(band.Frequencies())
	rx := mdn.NewModemReceiver(band)
	rx.OnFrame(func(fr mdn.ModemFrame) {
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
	ctrl.Start(0)

	end, err := tx.Send(0.5, payload)
	if err != nil {
		panic(err)
	}
	tb.Sim.RunUntil(end + 0.5)

	fmt.Printf("channel: %d symbols sent, %d corrupted in flight, %d repaired by FEC\n",
		tx.SymbolsTx, tx.SymbolsCorrupted, rx.FECCorrected)
	if got, want := len(standby.Rules()), len(primary.Rules()); got == want {
		fmt.Printf("flow table synced over sound: %d of %d rules on standby\n", got, want)
	} else {
		fmt.Printf("sync incomplete: %d of %d rules on standby\n", got, want)
	}
}
