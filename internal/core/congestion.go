package core

import "mdn/internal/netsim"

// RateSetter is the control surface the congestion controller drives:
// anything whose send rate can be set in packets/second.
// *netsim.PacedSource implements it.
type RateSetter interface {
	SetRate(pps float64)
	Rate() float64
}

// CongestionController is the Section 6 "switch congestion
// monitoring" idea taken to its conclusion: in-network congestion
// control driven purely by queue tones, "without waiting for source
// reactions, without having to modify the transport protocol, as in
// DCTCP, and without using the less efficient ECN mechanism". It
// applies AIMD to a paced source from the decoded queue levels:
// multiplicative decrease on the congested tone, hold on the mid
// tone, additive increase on the low tone.
type CongestionController struct {
	qm     *QueueMonitor
	source RateSetter
	onset  *OnsetFilter

	// Decreases counts multiplicative decreases applied.
	Decreases uint64
	// Increases counts additive increases applied.
	Increases uint64

	// HistoryDropped counts entries evicted from RateLog by the bound.
	HistoryDropped uint64
	// RateLog records (time, rate) after each adjustment, last
	// historyMax.
	RateLog []netsim.Sample
}

// AIMD settings of the congestion controller.
const (
	// beta is the multiplicative decrease factor applied on a
	// congested (high) tone: a DCTCP-like gentle decrease.
	beta = 0.5
	// increasePPS is the additive increase applied on a low tone.
	increasePPS = 5
	// minPPS floors the rate.
	minPPS = 1
)

// NewCongestionController wires a paced source to a queue monitor's
// tones.
func NewCongestionController(qm *QueueMonitor, source RateSetter) *CongestionController {
	return &CongestionController{
		qm:     qm,
		source: source,
		onset:  NewOnsetFilter(),
	}
}

// HandleWindow is the controller-side hook (wire via
// Controller.SubscribeWindows).
func (cc *CongestionController) HandleWindow(at float64, dets []Detection) {
	for _, det := range cc.onset.Step(dets) {
		switch cc.qm.LevelFor(det.Frequency) {
		case LevelHigh:
			rate := cc.source.Rate() * beta
			if rate < minPPS {
				rate = minPPS
			}
			cc.source.SetRate(rate)
			cc.Decreases++
			cc.RateLog = appendBounded(cc.RateLog, netsim.Sample{Time: at, Value: rate},
				historyMax, &cc.HistoryDropped)
		case LevelLow:
			cc.source.SetRate(cc.source.Rate() + increasePPS)
			cc.Increases++
			cc.RateLog = appendBounded(cc.RateLog, netsim.Sample{Time: at, Value: cc.source.Rate()},
				historyMax, &cc.HistoryDropped)
		case LevelMid:
			// Hold: the queue is in the operating band.
		}
	}
}
