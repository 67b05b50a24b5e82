package core

// EdgeDedup collapses per-window tone presence into rising-edge
// onsets with hysteresis: a frequency fires once when its amplitude
// first reaches Threshold and cannot fire again until the amplitude
// has fallen below the release level (hysteresis × Threshold). A tone
// that straddles a window or hop boundary is therefore one onset, not
// one per window — the duplicate-detection bug class the
// once-per-interval PortScan fix in PR 4 hit at the application layer,
// closed here at the detection layer.
//
// The release level sits *below* the attack threshold (a Schmitt
// trigger) so a borderline tone whose amplitude estimate wobbles
// around MinAmplitude — self-noise flips it across the floor window to
// window — does not retrigger on every wobble. That is also why the
// filter's post-threshold detections are the wrong input: dedup needs
// the sub-threshold amplitude estimates to see the release crossing.
//
// An EdgeDedup tracks one amplitude vector (one frequency per index,
// fixed order) and is not safe for concurrent use.
type EdgeDedup struct {
	// Threshold is the attack level: index i fires when amps[i] rises
	// to >= Threshold while inactive.
	Threshold float64

	active []bool
}

// hysteresis is the release fraction: index i goes inactive (a tone
// re-arms) once amps[i] falls below hysteresis × Threshold, half the
// attack threshold. The gap is the band in which state holds.
const hysteresis = 0.5

// NewEdgeDedup builds a dedup over n frequencies with the given attack
// threshold.
func NewEdgeDedup(n int, threshold float64) *EdgeDedup {
	return &EdgeDedup{
		Threshold: threshold,
		active:    make([]bool, n),
	}
}

// Step consumes one window's pre-threshold amplitude vector (same
// length and order every call) and invokes fire for each index whose
// amplitude rose through the attack level this window. It allocates
// nothing.
//
// floor raises the attack level for this window only — pass the same
// relative floor the detection filter computed (a fraction of the
// window's loudest watched amplitude) so spectral leakage from a loud
// tone cannot fire a phantom onset at a neighbouring frequency. The
// release comparison always uses the raw release level: a tone masked
// below a loud window's floor but still physically sounding must not
// re-arm and fire again when the masker stops.
func (e *EdgeDedup) Step(amps []float64, floor float64, fire func(i int)) {
	attack, release := e.Threshold, hysteresis*e.Threshold
	if floor > attack {
		attack = floor
	}
	for i, a := range amps {
		switch {
		case !e.active[i] && a >= attack:
			e.active[i] = true
			if fire != nil {
				fire(i)
			}
		case e.active[i] && a < release:
			e.active[i] = false
		}
	}
}
