package experiments

import (
	"mdn/internal/core"
)

// Fig3 reproduces Figure 3: port knocking, on the shipped
// scenarios/portknock.json. A sender keeps trying to push TCP traffic
// to a closed port; nothing is delivered until the controller hears
// the three knock tones in the correct order and installs the opening
// flow rule, after which goodput jumps to the send rate. In the paper
// the sender is blocked for about 34 seconds; the blocked interval
// here is set by when the scenario schedules the knocks — the shape
// (flat zero, then tracking the send curve) is the claim.
func Fig3() *Result {
	r := &Result{ID: "fig3", Title: "Port knocking: bytes sent vs received"}
	w, c := world("portknock.json", nil)
	send, knock := c.Traffic[0], c.Traffic[1]
	lastKnock := knock.StartS + float64(knock.NumPorts-1)*knock.IntervalMs/1000
	pk := w.Apps[0].(*core.PortKnock)
	h1, h2 := w.Hosts["h1"], w.Hosts["h2"]

	// Goodput sampling.
	var sentX, sentY, recvX, recvY []float64
	w.Sim.Every(0.25, 0.25, func(now float64) {
		sentX = append(sentX, now)
		sentY = append(sentY, float64(h1.TxBytes))
		recvX = append(recvX, now)
		recvY = append(recvY, float64(h2.RxBytes))
	})
	// Figure 3b's raw material: the knock melody as heard at the
	// controller microphone.
	melody := recordAudio(w, knock.StartS-0.2, lastKnock+0.5)
	runWorld(w)

	// Shape checks.
	var recvAtKnock, recvEnd float64
	for i, x := range recvX {
		if x <= lastKnock {
			recvAtKnock = recvY[i]
		}
		recvEnd = recvY[i]
	}
	r.row("traffic delivered before the knock completes", "none", recvAtKnock == 0,
		"%.0f bytes", recvAtKnock)
	r.row("port opens after third correct knock", "yes", pk.Opened && pk.OpenedAt > lastKnock,
		"opened=%v at t=%.2f s (knock 3 at %.1f s)", pk.Opened, pk.OpenedAt, lastKnock)
	expected := send.PPS * float64(send.Size) * (c.DurationS - pk.OpenedAt) // bytes after opening
	okGoodput := pk.Opened && recvEnd > 0.8*expected && recvEnd <= expected*1.05
	r.row("post-open goodput tracks send rate", "receive curve follows send curve",
		okGoodput, "%.0f bytes received vs %.0f expected", recvEnd, expected)

	r.addSeries("cumulative bytes sent", sentX, sentY)
	r.addSeries("cumulative bytes received", recvX, recvY)
	r.note("blocked interval: 0–%.2f s; wrong-order knocks observed: %d",
		pk.OpenedAt, pk.WrongKnocks)
	r.attachAudio("knock melody at the controller microphone (t=9.8–11.5 s)", melody)
	return r
}
